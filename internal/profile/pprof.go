// Package profile is the continuous profiler behind __system.profiles:
// every daemon captures short CPU-profile windows and heap snapshots on a
// steady cadence (plus anomaly-triggered captures), folds the samples into
// top-N per-function rows, and emits them through the self-telemetry sink so
// profiles are queryable through the same engine as everything else — and,
// because __system tables are plain leaf tables, survive restarts over the
// shared-memory path.
//
// This file is the pprof decoder. runtime/pprof writes gzipped protobuf
// (the pprof Profile message); the repo takes no dependencies, so the
// decoder below parses exactly the subset the folder needs — sample types,
// samples, the location→function graph, and the string table — with a
// hand-rolled varint walker. Unknown fields are skipped by wire type, so
// future runtime versions that add fields still decode.
package profile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// ValueType is one column of a profile's per-sample value vector ("cpu" in
// "nanoseconds", "alloc_space" in "bytes", ...).
type ValueType struct {
	Type string
	Unit string
}

// sample is one stack sample: location IDs leaf-first, one value per
// SampleType column.
type sample struct {
	locs []uint64
	vals []int64
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	// SampleTypes names the columns of every sample's value vector.
	SampleTypes []ValueType
	// DurationNanos is the profile's wall-clock window (CPU profiles).
	DurationNanos int64
	// Period is the sampling period in PeriodType units.
	Period     int64
	PeriodType ValueType

	samples []sample
	// locFuncs maps a location ID to its function names, innermost
	// (inlined leaf) first.
	locFuncs map[uint64][]string
}

// ValueIndex returns the value-vector column whose type matches typ, or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// FuncValue is one function's share of a profile column.
type FuncValue struct {
	// Flat is the value attributed to samples where the function is the
	// leaf frame (it was on CPU / did the allocation itself).
	Flat int64
	// Cum counts samples where the function appears anywhere on the stack.
	Cum int64
}

// Fold attributes column valueIdx of every sample to functions: flat to the
// leaf frame, cumulative to every distinct function on the stack. It returns
// the per-function map and the column total.
func (p *Profile) Fold(valueIdx int) (map[string]FuncValue, int64) {
	out := make(map[string]FuncValue)
	var total int64
	if valueIdx < 0 {
		return out, 0
	}
	seen := make(map[string]bool)
	for _, s := range p.samples {
		if valueIdx >= len(s.vals) {
			continue
		}
		v := s.vals[valueIdx]
		if v == 0 {
			continue
		}
		total += v
		clear(seen)
		leafDone := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if !leafDone {
					fv := out[fn]
					fv.Flat += v
					out[fn] = fv
					leafDone = true
				}
				if !seen[fn] {
					fv := out[fn]
					fv.Cum += v
					out[fn] = fv
					seen[fn] = true
				}
			}
		}
	}
	return out, total
}

// Decode parses a pprof profile as written by runtime/pprof (gzipped
// protobuf; raw protobuf is accepted too, for fuzzing and tests).
func Decode(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, 64<<20))
		zr.Close() //nolint:errcheck // fully read already
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	return decodeProfile(data)
}

// ---- protobuf wire walking ----

var errTruncated = errors.New("profile: truncated protobuf")

// uvarint decodes one base-128 varint at b[i:].
func uvarint(b []byte, i int) (uint64, int, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if i >= len(b) {
			return 0, 0, errTruncated
		}
		c := b[i]
		i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i, nil
		}
	}
	return 0, 0, errors.New("profile: varint overflow")
}

// walkFields calls fn for every field in a protobuf message. Varint fields
// arrive in v, length-delimited fields in data; fixed32/fixed64 are skipped
// (the pprof schema does not use them for anything we read).
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	i := 0
	for i < len(b) {
		key, ni, err := uvarint(b, i)
		if err != nil {
			return err
		}
		i = ni
		num, wt := int(key>>3), int(key&7)
		if num == 0 {
			return errors.New("profile: field number 0")
		}
		switch wt {
		case 0: // varint
			v, ni, err := uvarint(b, i)
			if err != nil {
				return err
			}
			i = ni
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64: skip
			if i+8 > len(b) {
				return errTruncated
			}
			i += 8
		case 2: // length-delimited
			n, ni, err := uvarint(b, i)
			if err != nil {
				return err
			}
			i = ni
			if n > uint64(len(b)-i) {
				return errTruncated
			}
			if err := fn(num, 0, b[i:i+int(n)]); err != nil {
				return err
			}
			i += int(n)
		case 5: // fixed32: skip
			if i+4 > len(b) {
				return errTruncated
			}
			i += 4
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
	}
	return nil
}

// packedUints appends the varints of a packed repeated field (or the single
// varint v when the field arrived unpacked).
func packedUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	i := 0
	for i < len(data) {
		u, ni, err := uvarint(data, i)
		if err != nil {
			return nil, err
		}
		dst = append(dst, u)
		i = ni
	}
	return dst, nil
}

// decodeProfile parses the top-level Profile message.
func decodeProfile(b []byte) (*Profile, error) {
	p := &Profile{locFuncs: make(map[uint64][]string)}
	var strtab []string
	// First pass gathers the string table and raw indices; names resolve
	// after, since the string table may follow the messages that use it.
	type rawVT struct{ typ, unit uint64 }
	var sampleTypes []rawVT
	var periodType rawVT
	type rawFunc struct{ id, name uint64 }
	var funcs []rawFunc
	type rawLoc struct {
		id      uint64
		funcIDs []uint64 // innermost first
	}
	var locs []rawLoc

	decodeVT := func(data []byte) (rawVT, error) {
		var vt rawVT
		err := walkFields(data, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				vt.typ = v
			case 2:
				vt.unit = v
			}
			return nil
		})
		return vt, err
	}

	err := walkFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			vt, err := decodeVT(data)
			if err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s sample
			err := walkFields(data, func(fnum int, fv uint64, fdata []byte) error {
				switch fnum {
				case 1: // location_id
					var err error
					s.locs, err = packedUints(s.locs, fv, fdata)
					return err
				case 2: // value (int64, but non-negative in practice)
					raw, err := packedUints(nil, fv, fdata)
					if err != nil {
						return err
					}
					for _, u := range raw {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var l rawLoc
			err := walkFields(data, func(fnum int, fv uint64, fdata []byte) error {
				switch fnum {
				case 1:
					l.id = fv
				case 4: // line
					return walkFields(fdata, func(lnum int, lv uint64, _ []byte) error {
						if lnum == 1 {
							l.funcIDs = append(l.funcIDs, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs = append(locs, l)
		case 5: // function
			var f rawFunc
			err := walkFields(data, func(fnum int, fv uint64, _ []byte) error {
				switch fnum {
				case 1:
					f.id = fv
				case 2:
					f.name = fv
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs = append(funcs, f)
		case 6: // string_table
			strtab = append(strtab, string(data))
		case 10: // duration_nanos
			p.DurationNanos = int64(v)
		case 11: // period_type
			vt, err := decodeVT(data)
			if err != nil {
				return err
			}
			periodType = vt
		case 12: // period
			p.Period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	p.PeriodType = ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)}
	funcName := make(map[uint64]string, len(funcs))
	for _, f := range funcs {
		funcName[f.id] = str(f.name)
	}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcIDs))
		for _, id := range l.funcIDs {
			if n := funcName[id]; n != "" {
				names = append(names, n)
			}
		}
		p.locFuncs[l.id] = names
	}
	return p, nil
}
