package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var busySink uint64

//go:noinline
func busyLoop(d time.Duration) {
	x := uint64(88172645463325252)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	busySink += x
}

// TestProfileAttributesBusyLoop decodes a real CPU profile of a busy loop
// and checks that the loop's own function is on the stack of over 90% of
// the sampled time, and that its frames carry this file's name.
func TestProfileAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	busyLoop(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, busy int64
	for _, s := range p.Samples {
		total += s.Value
		if len(s.Stack) == 0 {
			continue
		}
		if leaf := s.Stack[0]; strings.HasSuffix(leaf.Func, ".busyLoop") {
			busy += s.Value
			if !strings.HasSuffix(leaf.File, "pprofdec_test.go") {
				t.Fatalf("busyLoop frame has file %q", leaf.File)
			}
		}
	}
	if total == 0 {
		t.Fatal("profile has no samples")
	}
	if share := float64(busy) / float64(total); share <= 0.9 {
		t.Errorf("busyLoop is the leaf of %.0f%% of sampled time, want over 90%%", share*100)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{
		{0x1f, 0x8b, 0, 0},       // gzip magic, nothing behind it
		{0x12, 0x7f, 1, 2, 3},    // sample field longer than the message
		{0xff, 0xff, 0xff, 0xff}, // varint with no end
	} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(%x) succeeded", b)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn, file, want string
	}{
		{"dcpim/internal/sim.(*Engine).Step", "/x/internal/sim/engine.go", layerQueue},
		{"dcpim/internal/sim.(*ladder).pop", "/x/internal/sim/ladder.go", layerQueue},
		{"dcpim/internal/sim.(*Group).RunEpoch", "/x/internal/sim/group.go", layerGroup},
		{"dcpim/internal/netsim.(*Fabric).drainStaging", "/x/internal/netsim/shard.go", layerShard},
		{"dcpim/internal/netsim.portTxDone", "/x/internal/netsim/port.go", layerForward},
		{"dcpim/internal/core.(*Proto).OnPacket", "/x/internal/core/proto.go", layerCore},
		{"dcpim/internal/protocols/homa.(*Proto).OnPacket", "/x/internal/protocols/homa/homa.go", layerProtocols},
		{"dcpim/internal/experiments.newRunState.func1", "/x/internal/experiments/run.go", layerHarness},
		{"runtime.scanobject", "/go/src/runtime/mgcmark.go", layerGC},
	} {
		if got, ok := layerOf(frame{Func: tc.fn, File: tc.file}); !ok || got != tc.want {
			t.Errorf("layerOf(%s) = %q %v, want %q", tc.fn, got, ok, tc.want)
		}
	}
	if l, ok := layerOf(frame{Func: "runtime.mallocgc", File: "/go/src/runtime/malloc.go"}); ok {
		t.Errorf("runtime.mallocgc mapped to %q; it should fall through to its caller", l)
	}
}
