package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// The *.cpu_share metrics come from a runtime/pprof CPU profile of the
// traced run.  Each sample labelled phase=run (the measured slices) is
// attributed to the package of its leaf frame and that package to a
// layer.  The decoder below reads just the profile.proto fields this
// needs, so the benchmark stays standard-library only.

// layerOf maps a leaf frame's package path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "netsim":
			return "netsim"
		case "asic", "l2", "l3", "tcam", "mem", "guard", "verify":
			return "asic"
		case "tcpu":
			return "tcpu"
		case "core":
			return "core"
		case "endhost":
			return "endhost"
		case "rcp", "accounting", "inband", "microburst", "agent":
			return "app"
		case "fabric", "faults", "reflex":
			return "control"
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/perfbench"):
		return "bench"
	}
	return "other"
}

// lookupPkgs are the leaf packages counted as table lookups.
func isLookupPkg(pkg string) bool {
	switch pkg {
	case "repro/internal/l2", "repro/internal/l3", "repro/internal/tcam":
		return true
	}
	return false
}

// funcPkg extracts the package path of a symbol such as
// "repro/internal/netsim.(*Sim).pop".
func funcPkg(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// profileShares is the outcome of attributing a profile.
type profileShares struct {
	samples int64            // samples in the measured phase
	layer   map[string]int64 // samples per layer
	lookup  int64            // samples whose leaf is an l2/l3/tcam lookup
}

func (p profileShares) share(layer string) float64 {
	return ratio(float64(p.layer[layer]), float64(p.samples))
}

// attributeProfile decodes a gzipped pprof CPU profile and attributes
// the samples labelled phase=run by leaf frame.
func attributeProfile(gz []byte) (profileShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profileShares{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profileShares{}, err
	}
	type sample struct {
		locs   []uint64
		value  int64
		labels [][2]int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}  // function id -> name string index
		locLeaf  = map[uint64]uint64{} // location id -> leaf function id
	)
	err = walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				case 3:
					var kv [2]int64
					err := walk(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[0] // sample count
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, leaf uint64
			first := true
			err := walk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if first { // line[0] is the innermost inlined frame
						first = false
						return walk(b, func(f, _ int, v uint64, _ []byte) error {
							if f == 1 {
								leaf = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return profileShares{}, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := profileShares{layer: map[string]int64{}}
	for _, s := range samples {
		inRun := false
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" && str(kv[1]) == "run" {
				inRun = true
			}
		}
		if !inRun || len(s.locs) == 0 {
			continue
		}
		pkg := funcPkg(str(funcName[locLeaf[s.locs[0]]]))
		out.samples += s.value
		out.layer[layerOf(pkg)] += s.value
		if isLookupPkg(pkg) {
			out.lookup += s.value
		}
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// walk calls fn for every field of one protobuf message.  Varint
// fields pass their value in v; length-delimited fields pass their
// bytes in b.
func walk(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
