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

// repoPrefix marks a frame of the program under test.
const repoPrefix = "adafl/internal/"

// cpuCharge is a CPU profile attributed to the program's modules: each
// sample is charged to the innermost adafl/internal/<module> frame on its
// stack, or to "runtime" when no frame of the program is on it (the
// scheduler, the garbage collector and the benchmark's own loop).
// memmove counts, in addition, samples whose leaf is memmove or memclr.
type cpuCharge struct {
	module  map[string]float64 // seconds
	memmove float64            // seconds
	total   float64            // seconds
}

// moduleOf returns the module a function name belongs to, or "".
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// charge attributes one sample's stack (innermost frame first).
func (c *cpuCharge) charge(stack []string, seconds float64) {
	mod := "runtime"
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			mod = m
			break
		}
	}
	c.module[mod] += seconds
	c.total += seconds
	if len(stack) > 0 && (strings.HasPrefix(stack[0], "runtime.memmove") || strings.HasPrefix(stack[0], "runtime.memclr")) {
		c.memmove += seconds
	}
}

// attributeProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and charges its samples by module.
func attributeProfile(data []byte) (*cpuCharge, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	c := &cpuCharge{module: map[string]float64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples, nanoseconds]; charge the time.
		ns := s.values[len(s.values)-1]
		var stack []string
		for _, locID := range s.locs {
			for _, fnID := range p.locFuncs[locID] {
				stack = append(stack, p.strings[p.funcNames[fnID]])
			}
		}
		c.charge(stack, float64(ns)/1e9)
	}
	return c, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errTruncated = errors.New("profile: truncated protobuf")

// field is one decoded protobuf field: varint value or length-delimited
// bytes.
type field struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// fields splits a protobuf message into its top-level fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated varint field, packed or not.
func varints(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sf, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, x := range sf {
				switch x.num {
				case 1:
					if s.locs, err = varints(x, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case 1:
					id = x.value
				case 4: // line
					line, err := fields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == 1 {
							fns = append(fns, y.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			ff, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = int64(x.value)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}
