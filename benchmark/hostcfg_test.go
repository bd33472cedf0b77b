package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cudele/internal/model"
)

func TestHostConfig(t *testing.T) {
	cfg, err := hostConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("host_cfg does not validate: %v", err)
	}
	def := reflect.ValueOf(model.Default())
	got := reflect.ValueOf(cfg)
	for _, n := range structuralFields {
		if !reflect.DeepEqual(got.FieldByName(n).Interface(), def.FieldByName(n).Interface()) {
			t.Errorf("structural field %s changed: %v, default %v", n, got.FieldByName(n), def.FieldByName(n))
		}
	}
	for _, n := range serviceTimeFields {
		if d := time.Duration(got.FieldByName(n).Int()); d < 0 || d > 1 {
			t.Errorf("service time %s = %v, want 0 or 1ns", n, d)
		}
	}
	for _, n := range bandwidthFields {
		if bw := got.FieldByName(n).Float(); bw != hostBandwidth {
			t.Errorf("bandwidth %s = %g, want %g", n, bw, float64(hostBandwidth))
		}
	}
}

// TestHostConfigRejectsUnclassifiedField is the guard the lists exist for:
// a Config that grows a field nobody classified must fail, whatever the
// field's type.
func TestHostConfigRejectsUnclassifiedField(t *testing.T) {
	type grown struct {
		SegmentEvents   int
		MDSOpTime       time.Duration
		NetBandwidth    float64
		NewFlushLatency time.Duration // a future sleep
		NewDiskRate     float64
	}
	err := classifyFields(reflect.TypeOf(grown{}),
		[]string{"SegmentEvents"}, []string{"MDSOpTime"}, []string{"NetBandwidth"})
	if err == nil {
		t.Fatal("unclassified fields were accepted")
	}
	for _, want := range []string{"NewFlushLatency", "NewDiskRate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %s: %v", want, err)
		}
	}
	if err := classifyFields(reflect.TypeOf(grown{}),
		[]string{"SegmentEvents", "NewDiskRate"}, []string{"MDSOpTime", "NewFlushLatency"}, []string{"NetBandwidth"}); err != nil {
		t.Errorf("fully classified config rejected: %v", err)
	}
	if err := classifyFields(reflect.TypeOf(grown{}),
		[]string{"SegmentEvents", "NewDiskRate", "Gone"}, []string{"MDSOpTime", "NewFlushLatency"}, []string{"NetBandwidth"}); err == nil {
		t.Error("a listed field that no longer exists was accepted")
	}
}
