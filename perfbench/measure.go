package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params are the workload parameters chosen once from a measurement and
// kept in perfbench/params.json. They are never re-derived per run: a
// faster system is compared at the same offered load and input size.
type params struct {
	Study     studyParams     `json:"study_http"`
	Serve     serveParams     `json:"serve_api"`
	Reanalyze reanalyzeParams `json:"reanalyze"`
}

// workers is the worker count of every timed pass: serial, so a run's
// time does not depend on how many cores the machine lends it.
const workers = 1

func loadParams(path string) (params, error) {
	var p params
	b, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return p, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is left unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// repeatSetup runs a set-up n times and returns the median duration in
// seconds with the result of the last repetition; earlier results are
// released through drop.
func repeatSetup[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPeakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// digest hashes a value's complete contents — unexported fields, pointer
// targets, map entries in sorted key order, floats by their bits — so two
// processes can check that they computed bit-identical results.
func digest(v any) string {
	h := sha256.New()
	var w digestWriter
	w.value(reflect.ValueOf(v))
	h.Write(w.buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

type digestWriter struct{ buf []byte }

func (w *digestWriter) u64(x uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, x) }

func (w *digestWriter) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Invalid:
		w.u64(0)
	case reflect.Bool:
		if v.Bool() {
			w.u64(1)
		} else {
			w.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		w.u64(math.Float64bits(v.Float()))
	case reflect.String:
		w.u64(uint64(v.Len()))
		w.buf = append(w.buf, v.String()...)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			w.u64(0)
			return
		}
		w.u64(1)
		w.value(v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			w.u64(math.MaxUint64)
			return
		}
		w.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			w.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.value(v.Field(i))
		}
	case reflect.Map:
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			var kw, vw digestWriter
			kw.value(it.Key())
			vw.value(it.Value())
			entries = append(entries, entry{kw.buf, vw.buf})
		}
		sort.Slice(entries, func(i, j int) bool { return string(entries[i].k) < string(entries[j].k) })
		w.u64(uint64(len(entries)))
		for _, e := range entries {
			w.buf = append(append(w.buf, e.k...), e.v...)
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}
