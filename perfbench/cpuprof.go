package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is written by runtime/pprof and read
// back here with a minimal decoder of the profile.proto wire format, so
// the benchmark needs nothing beyond the standard library. Samples are
// attributed to a module by their stack (see cpuCategory) and reported
// as shares of the profile's CPU time.

// cpuCategories are the modules CPU time is split into, in report order.
var cpuCategories = []string{"bccrypto", "script", "chain", "p2p", "daemon", "json", "lora", "simtime", "gc", "other"}

// gcFrames are runtime frames that mark a sample as garbage-collector
// work wherever they sit in the stack.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
}

// cpuCategory attributes one sample, given its stack leaf first: GC work
// anywhere in the stack counts as gc; otherwise the innermost frame
// that is encoding/json or a bcwan/internal package names the module
// (math/big under bccrypto counts as bccrypto, json under daemon as
// json). Samples that reach no such frame, and bcwan packages outside
// the list, count as other.
func cpuCategory(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	const internal = "bcwan/internal/"
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "encoding/json."):
			return "json"
		case strings.HasPrefix(fn, internal):
			pkg := fn[len(internal):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, c := range cpuCategories {
				if c == pkg {
					return c
				}
			}
			return "other"
		}
	}
	return "other"
}

// cpuShares decodes a gzip'd CPU profile and returns each category's
// share of the sampled CPU time (every category present, summing to 1
// when the profile holds any samples).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64, len(cpuCategories))
	for _, c := range cpuCategories {
		out[c] = 0
	}
	var total float64
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			continue
		}
		v := float64(s.values[p.valueIdx])
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		out[cpuCategory(stack)] += v
		total += v
	}
	if total > 0 {
		for c := range out {
			out[c] /= total
		}
	}
	return out, nil
}

// profile is the part of profile.proto the shares need.
type profile struct {
	samples []pbSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
	valueIdx int // index of the "cpu" sample value
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]string)}
	var strs []string
	var sampleTypes []uint64 // string index of each value type
	locLines := make(map[uint64][]uint64)
	funcNames := make(map[uint64]uint64)
	err := pbFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbUints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.valueIdx = i
		}
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, fn := range fns {
			names[i] = str(funcNames[fn])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited payload. Fixed
// 32- and 64-bit fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field in either encoding: one varint
// (data nil) or a packed run of varints.
func pbUints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 when malformed).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
