package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into self-CPU shares per
// layer: each sample's CPU time goes to the layer of its leaf frame (the
// innermost inlined function at the sampled address). Library code that
// is no layer of its own (math, maps, hashing, memmove, clock reads)
// counts for the first caller up the stack that is, so the jitter draws
// of the cost models count as cost-model time. It decodes the
// profile.proto wire format directly, reading only the fields the fold
// needs.

// cpuLayers are the cpu_share.* names, in report order.
var cpuLayers = []string{
	"mpi", "pdes", "ipm", "npb", "apps", "report", "obs", "facility",
	"netmodel", "cpumodel", "iomodel", "sim", "sync",
	"runtime_sched", "runtime_gc", "trace", "other",
}

// repoLayers are the directories below repro/internal/ that are layers
// of their own; a package inside one of them belongs to it.
var repoLayers = map[string]bool{
	"mpi": true, "pdes": true, "ipm": true, "npb": true, "apps": true,
	"report": true, "obs": true, "facility": true,
	"netmodel": true, "cpumodel": true, "iomodel": true, "sim": true,
}

// Runtime functions are split by name: fragments of the garbage
// collector and allocator, then of the goroutine scheduler and the
// park/ready handoff (channels, semaphores, futexes). Matching is on the
// lower-cased function name.
var (
	gcFragments = []string{
		"gc", "mark", "scan", "sweep", "scaveng", "malloc", "mspan", "mheap",
		"mcache", "mcentral", "wbbuf", "barrier", "greyobject", "findobject",
		"heapbits", "newobject", "growslice", "makeslice", "memclrnoheap",
		"pagealloc", "heapsettype", "typepointers",
	}
	schedFragments = []string{
		"park", "ready", "schedule", "findrunnable", "execute", "runq", "futex",
		"note", "mcall", "gogo", "wakep", "steal", "lock", "casgstatus",
		"timer", "netpoll", "usleep", "osyield", "procyield", "sema", "chan",
		"select", "send", "recv", "gosched", "goexit", "newproc", "systemstack",
		"stopm", "startm", "handoffp", "acquirep", "releasep", "spinning",
		"preempt",
	}
)

// funcLayer returns the layer owning a fully qualified Go function name
// such as "repro/internal/mpi.(*inbox).match" or "runtime.gopark", or ""
// for library code that counts for its caller. Repository packages
// outside the named layers are "other"; the benchmark's own tracer
// (package main) is "trace".
func funcLayer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: drop type arguments
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if top, _, _ := strings.Cut(rest, "/"); repoLayers[top] {
			return top
		}
		return "other"
	}
	switch {
	case pkg == "main":
		return "trace"
	case pkg == "sync" || strings.HasPrefix(pkg, "sync/") || pkg == "internal/sync":
		return "sync"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		name := strings.ToLower(fn[len(pkg):])
		for _, f := range gcFragments {
			if strings.Contains(name, f) {
				return "runtime_gc"
			}
		}
		for _, f := range schedFragments {
			if strings.Contains(name, f) {
				return "runtime_sched"
			}
		}
	case strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

// sampleLayer returns the layer a sample's CPU time counts for: that of
// the innermost frame funcLayer assigns one.
func (p *profile) sampleLayer(s profSample) string {
	for _, loc := range s.locs {
		for _, fid := range p.locs[loc] {
			if idx, ok := p.funcs[fid]; ok && idx < uint64(len(p.strings)) {
				if l := funcLayer(p.strings[idx]); l != "" {
					return l
				}
			}
		}
	}
	return "other"
}

// foldProfile returns the CPU nanoseconds of a gzipped pprof profile per
// layer (every cpuLayers name present) and their total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]int64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	// The CPU profile's sample types are (samples, cpu nanoseconds);
	// use the last value, the nanoseconds.
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		out[p.sampleLayer(s)] += v
		total += v
	}
	return out, total, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile holds the decoded subset: samples, location id -> function
// ids (leaf first), function id -> name string index, string table.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64
	funcs   map[uint64]uint64
	strings []string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: varint fields fill v,
// length-delimited ones fill b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(buf []byte) ([]pbField, error) {
	var fs []pbField
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errTruncated
		}
		buf = buf[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(buf)
			if n <= 0 {
				return nil, errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errTruncated
			}
			f.v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return nil, errTruncated
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errTruncated
			}
			f.v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			var s profSample
			if err := eachField(f.b, func(g pbField) error {
				vs, err := g.varints()
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			}); err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return eachField(g.b, func(l pbField) error {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.locs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}

func eachField(buf []byte, fn func(pbField) error) error {
	fs, err := pbFields(buf)
	if err != nil {
		return err
	}
	for _, f := range fs {
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
