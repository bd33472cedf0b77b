package main

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"cudele/internal/model"
)

// host_cfg is model.Default() with every modeled service time removed, so
// wall time on the real backend is the program's own and not a time.Sleep
// of the 2018 testbed's calibration. Every model.Config field is on
// exactly one of the three lists below; hostConfig fails when a field is
// on none, so a future Config field cannot silently put a sleep back into
// the real_* numbers (or silently lose a retry delay that prevents a spin).

// structuralFields shape what the program does — segment sizes, replica
// counts, retry delays, windows — and keep their model.Default() value.
var structuralFields = []string{
	"JournalEventBytes", "SegmentEvents", "DispatchSize", "StripeUnit", "Replicas", "NumOSDs",
	"MergeChunkEvents", "MergeWindowChunks", "MergeAdmitMax", "MergeRetryDelay",
	"MigrateChunkDirs", "MigrateWindowChunks", "MigrateAdmitMax", "MigrateRetryDelay", "MigrateDirCPU",
	// Dimensionless multipliers on service times that host_cfg zeroes.
	// MDSOpJitter still draws one random number per request, which is
	// part of the program's dispatch cost.
	"MDSDispatchCongestion", "MDSMergeCongestion", "MDSOpJitter",
	"InodeBytes", "AllocatedInodesDefault",
}

// serviceTimeFields are modeled device and CPU times: set to 0, or to
// 1 ns where Config.Validate demands a positive value.
var serviceTimeFields = []string{
	"ClientAppendTime", "ClientOpOverhead", "NetLatency",
	"MDSOpTime", "MDSLookupTime", "MDSJournalOpTime", "MDSJournalLatency", "MDSSegmentDispatchCPU",
	"MDSApplyTime", "MDSMergeSetup", "MDSCapRevokeTime", "MDSRejectTime", "MDSSessionOverhead",
	"OSDOpLatency", "ForkBase",
}

// bandwidthFields are modeled link and device rates in bytes per second:
// set to hostBandwidth, which rounds every transfer this benchmark makes
// to zero nanoseconds.
var bandwidthFields = []string{
	"NetBandwidth", "OSDDiskBandwidth", "LocalDiskBandwidth", "ForkCopyBandwidth", "SyncDrainBandwidth",
}

const hostBandwidth = 1e15

// classifyFields checks that every field of the config type t is on
// exactly one list, that listed fields exist, and that service times are
// time.Durations and bandwidths float64s.
func classifyFields(t reflect.Type, structural, serviceTime, bandwidth []string) error {
	class := map[string]string{}
	var problems []string
	add := func(names []string, kind string) {
		for _, n := range names {
			if prev, dup := class[n]; dup {
				problems = append(problems, fmt.Sprintf("%s is listed as both %s and %s", n, prev, kind))
			}
			class[n] = kind
			if _, ok := t.FieldByName(n); !ok {
				problems = append(problems, fmt.Sprintf("%s field %s does not exist", kind, n))
			}
		}
	}
	add(structural, "structural")
	add(serviceTime, "service-time")
	add(bandwidth, "bandwidth")
	durType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch class[f.Name] {
		case "":
			problems = append(problems, fmt.Sprintf("field %s (%s) is on no list", f.Name, f.Type))
		case "service-time":
			if f.Type != durType {
				problems = append(problems, fmt.Sprintf("service-time field %s is a %s, not a time.Duration", f.Name, f.Type))
			}
		case "bandwidth":
			if f.Type.Kind() != reflect.Float64 {
				problems = append(problems, fmt.Sprintf("bandwidth field %s is a %s, not a float64", f.Name, f.Type))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("host_cfg: classify model.Config in benchmark/hostcfg.go: %v", problems)
	}
	return nil
}

// hostConfig builds host_cfg.
func hostConfig() (model.Config, error) {
	cfg := model.Default()
	v := reflect.ValueOf(&cfg).Elem()
	if err := classifyFields(v.Type(), structuralFields, serviceTimeFields, bandwidthFields); err != nil {
		return cfg, err
	}
	for _, n := range serviceTimeFields {
		v.FieldByName(n).SetInt(0)
	}
	for _, n := range bandwidthFields {
		v.FieldByName(n).SetFloat(hostBandwidth)
	}
	// Validate names one offending field at a time; raise each zeroed
	// service time it demands to the smallest positive value.
	for range serviceTimeFields {
		err := cfg.Validate()
		if err == nil {
			break
		}
		var ce *model.ConfigError
		if !errors.As(err, &ce) {
			return cfg, fmt.Errorf("host_cfg: %w", err)
		}
		fv := v.FieldByName(ce.Field)
		if !fv.IsValid() || fv.Kind() != reflect.Int64 || fv.Int() != 0 {
			return cfg, fmt.Errorf("host_cfg: %w", err)
		}
		fv.SetInt(1)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("host_cfg: %w", err)
	}
	return cfg, nil
}
