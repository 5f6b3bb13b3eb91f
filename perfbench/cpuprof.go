package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShares groups the CPU samples of a runtime/pprof profile by the
// package doing the work. Each sample goes to the innermost frame of its
// stack that belongs to a group. So base58 called from a JSON
// marshaller counts as base58; GC assist and mark work
// (runtime.gcAssistAlloc, runtime.gcDrain and the like) counts as gc,
// even when an allocation in another group triggered it; and plain
// allocation (runtime.mallocgc, in no group) counts toward the caller's
// group.
type cpuShares struct {
	total float64
	group map[string]float64
}

// cpuGroups names the cpu.* shares; a frame joins the first group whose
// predicate accepts its function name.
var cpuGroups = []struct {
	name string
	in   func(fn string) bool
}{
	{"base58", func(fn string) bool { return pkgOf(fn) == "jitomev/internal/base58" }},
	{"json", func(fn string) bool { return pkgOf(fn) == "encoding/json" }},
	{"gc", isGCFrame},
	{"net", func(fn string) bool {
		switch pkgOf(fn) {
		case "net", "net/http", "net/textproto":
			return true
		}
		return strings.HasPrefix(fn, "runtime.netpoll")
	}},
}

func isGCFrame(fn string) bool {
	if pkgOf(fn) != "runtime" {
		return false
	}
	for _, p := range []string{"runtime.gc", "runtime.mark", "runtime.scan", "runtime.greyobject",
		"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.bgscavenge",
		"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.findObject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a fully qualified function name such
// as "encoding/json.(*encodeState).marshal".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func (s cpuShares) frac(group string) float64 {
	if s.total == 0 {
		return 0
	}
	return s.group[group] / s.total
}

func (s *cpuShares) add(o cpuShares) {
	if s.group == nil {
		s.group = map[string]float64{}
	}
	s.total += o.total
	for k, v := range o.group {
		s.group[k] += v
	}
}

// profiled runs f under the CPU profiler and returns its CPU shares.
func profiled(f func() error) (cpuShares, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuShares{}, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return cpuShares{}, err
	}
	return parseCPUProfile(buf.Bytes())
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, reading only samples, locations, functions and strings.
func parseCPUProfile(gz []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuShares{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, err
	}
	type sample struct {
		locs  []uint64
		value []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.value = appendVarints(s.value, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	out := cpuShares{group: map[string]float64{}}
	for _, s := range samples {
		if len(s.value) == 0 {
			continue
		}
		w := float64(s.value[len(s.value)-1]) // cpu nanoseconds
		out.total += w
		if g := classify(s.locs, locFns, fnName, strs); g != "" {
			out.group[g] += w
		}
	}
	return out, nil
}

func classify(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFns[loc] {
			idx := fnName[fn]
			if idx >= uint64(len(strs)) {
				continue
			}
			for _, g := range cpuGroups {
				if g.in(strs[idx]) {
					return g.name
				}
			}
		}
	}
	return ""
}

// appendVarints appends a repeated integer field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling f with each field's
// number and either its varint value (b == nil) or its bytes.
func protoFields(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
