package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"strings"
	"testing"
)

func TestFuncLayer(t *testing.T) {
	cases := map[string]string{
		"repro/internal/mpi.(*inbox).match":               "mpi",
		"repro/internal/npb/cg.(*matrix).spmv":            "npb",
		"repro/internal/apps/chaste.Run.func1":            "apps",
		"repro/internal/obs.sortedKeys[go.shape.string]":  "obs",
		"repro/internal/facility.(*pendHeap).push":        "facility",
		"repro/internal/experiments.(*Ctx).Chaste32Prose": "other",
		"runtime.gopark":                  "runtime_sched",
		"runtime.findRunnable":            "runtime_sched",
		"runtime.chanrecv":                "runtime_sched",
		"runtime.scanobject":              "runtime_gc",
		"runtime.mallocgc":                "runtime_gc",
		"sync.(*Mutex).Lock":              "sync",
		"sync/atomic.(*Int64).Add":        "sync",
		"internal/sync.(*Mutex).Unlock":   "sync",
		"main.(*callTracer).Call":         "trace",
		"math.archExp":                    "",
		"runtime.memmove":                 "",
		"internal/runtime/maps.ctrlGroup": "",
		"aeshashbody":                     "",
	}
	for fn, want := range cases {
		if got := funcLayer(fn); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for hand-built test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// buildProfile encodes a gzipped CPU profile. Each stack lists function
// names leaf first, one location per frame; the frame "a+b" is one
// location where a was inlined into b.
func buildProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{""}
	index := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		strs = append(strs, s)
		index[s] = uint64(len(strs) - 1)
		return index[s]
	}
	var msg pb
	funcs := map[string]uint64{}
	locs := map[string]uint64{}
	for i, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			if _, ok := locs[frame]; !ok {
				var loc pb
				locs[frame] = uint64(len(locs) + 1)
				loc = loc.varint(1, locs[frame])
				for _, fn := range strings.Split(frame, "+") {
					if _, ok := funcs[fn]; !ok {
						funcs[fn] = uint64(len(funcs) + 1)
						var f pb
						f = f.varint(1, funcs[fn]).varint(2, intern(fn))
						msg = msg.bytes(5, f)
					}
					loc = loc.bytes(4, pb(nil).varint(1, funcs[fn]))
				}
				msg = msg.bytes(4, loc)
			}
			locIDs = append(locIDs, locs[frame])
		}
		var s pb
		// Packed location ids; values unpacked (both encodings occur).
		s = s.bytes(1, packed(locIDs...))
		s = s.varint(2, 1).varint(2, uint64(nanos[i]))
		msg = msg.bytes(2, s)
	}
	for _, s := range strs {
		msg = msg.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfileByLeafLayer(t *testing.T) {
	gz := buildProfile(t, [][]string{
		{"repro/internal/mpi.(*inbox).match", "repro/internal/mpi.(*Comm).recvRaw"},
		// math leaf counts for the cost model that called it.
		{"math.archExp", "repro/internal/netmodel.(*Model).Jitter", "repro/internal/mpi.(*Comm).sendMsg"},
		// The leaf of an inlined location is its first line.
		{"sync.(*Mutex).Lock+repro/internal/mpi.(*inbox).put"},
		{"runtime.gopark", "runtime.chanrecv1", "repro/internal/sched.(*state).work"},
		{"runtime.scanobject", "runtime.gcDrain"},
		{"runtime.nanotime", "time.Now", "main.(*callTracer).Call"},
		{"runtime.memmove", "runtime.goexit"},
		{"aeshashbody"},
	}, []int64{500, 200, 100, 70, 60, 40, 20, 10})
	got, total, err := foldProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"mpi": 500, "netmodel": 200, "sync": 100, "runtime_sched": 70 + 20,
		"runtime_gc": 60, "trace": 40, "other": 10,
	}
	if total != 1000 {
		t.Errorf("total = %d, want 1000", total)
	}
	for _, l := range cpuLayers {
		if got[l] != want[l] {
			t.Errorf("layer %s = %d, want %d", l, got[l], want[l])
		}
	}
	if len(got) != len(cpuLayers) {
		t.Errorf("fold reports %d layers, want every one of %d", len(got), len(cpuLayers))
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input folded without error")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // length 5, only 1 byte follows
	zw.Close()
	if _, _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("truncated protobuf folded without error")
	}
}
