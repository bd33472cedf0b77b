package model

import (
	"errors"
	"testing"
	"time"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultCalibration(t *testing.T) {
	c := Default()
	// Append Client Journal baseline: ~11,000 events/s (paper §V-A).
	rate := float64(time.Second) / float64(c.ClientAppendTime)
	if rate < 10500 || rate > 11500 {
		t.Fatalf("client append rate = %.0f/s, want ~11000", rate)
	}
	// MDS journal-off peak: ~3000 op/s (paper §II-A).
	peak := float64(time.Second) / float64(c.MDSOpTime)
	if peak < 2800 || peak > 3200 {
		t.Fatalf("MDS peak = %.0f op/s, want ~3000", peak)
	}
	// Journal storage footprint: 2.5 KB/update (paper §V-A).
	if c.JournalEventBytes != 2500 {
		t.Fatalf("journal event bytes = %d, want 2500", c.JournalEventBytes)
	}
	// 1M updates should be ~2.38 GB.
	gb := float64(c.JournalEventBytes) * 1e6 / (1 << 30)
	if gb < 2.2 || gb > 2.5 {
		t.Fatalf("1M-update journal = %.2f GiB, want ~2.33", gb)
	}
	// Single-client RPC create (journal off) ~654/s: overheads sum to
	// ~1.53 ms.
	perOp := c.ClientOpOverhead + 2*c.NetLatency + c.MDSOpTime
	rate = float64(time.Second) / float64(perOp)
	if rate < 600 || rate > 710 {
		t.Fatalf("single-client RPC rate = %.0f/s, want ~654", rate)
	}
	// Volatile Apply ~0.9x of the append baseline.
	ratio := float64(c.MDSApplyTime) / float64(c.ClientAppendTime)
	if ratio < 0.8 || ratio > 1.0 {
		t.Fatalf("volatile-apply/append ratio = %.2f, want ~0.9", ratio)
	}
}

func TestValidateCatchesZeroFields(t *testing.T) {
	fields := []func(*Config){
		func(c *Config) { c.ClientAppendTime = 0 },
		func(c *Config) { c.MDSOpTime = 0 },
		func(c *Config) { c.MDSLookupTime = 0 },
		func(c *Config) { c.MDSApplyTime = 0 },
		func(c *Config) { c.NetBandwidth = 0 },
		func(c *Config) { c.OSDDiskBandwidth = 0 },
		func(c *Config) { c.LocalDiskBandwidth = 0 },
		func(c *Config) { c.JournalEventBytes = 0 },
		func(c *Config) { c.SegmentEvents = 0 },
		func(c *Config) { c.DispatchSize = 0 },
		func(c *Config) { c.StripeUnit = 0 },
		func(c *Config) { c.Replicas = 0 },
		func(c *Config) { c.NumOSDs = 0 },
		func(c *Config) { c.AllocatedInodesDefault = 0 },
		func(c *Config) { c.ForkCopyBandwidth = 0 },
		func(c *Config) { c.SyncDrainBandwidth = 0 },
		func(c *Config) { c.MergeWindowChunks = 0 },
		func(c *Config) { c.MigrateWindowChunks = 0 },
		func(c *Config) { c.MigrateChunkDirs = 0 },
	}
	for i, mutate := range fields {
		c := Default()
		mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("mutation %d: Validate accepted bad config", i)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("mutation %d: error type %T, want *ConfigError", i, err)
		}
		if ce.Error() == "" {
			t.Fatalf("mutation %d: empty error string", i)
		}
	}
}
