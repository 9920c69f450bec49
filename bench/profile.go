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

// This file decodes the runtime/pprof CPU profile with the standard
// library alone: a gzipped protobuf (profile.proto) of which only
// samples, locations, functions and the string table matter here.

// pbFields calls fn for each top-level field of a protobuf message. For
// varint fields v holds the value; for length-delimited fields data holds
// the bytes.
func pbFields(msg []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (data) or not (v).
func pbUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// profileSample is one stack (function names, leaf first) and its sample
// count.
type profileSample struct {
	stack []string
	count int64
}

// decodeProfile reads a gzipped CPU profile into its samples.
func decodeProfile(r io.Reader) ([]profileSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		samples [][2][]uint64           // location ids, values
	)
	err = pbFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s [2][]uint64
			err := pbFields(data, func(num int, v uint64, data []byte) (err error) {
				if num == 1 || num == 2 {
					s[num-1], err = pbUints(s[num-1], v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; inlined callees come first
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s[1]) == 0 {
			return nil, errors.New("pprof: sample without values")
		}
		var stack []string
		for _, loc := range s[0] {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profileSample{stack, int64(s[1][0])})
	}
	return out, nil
}

// bucketOf attributes a stack (leaf first) to a share bucket: the package
// of the first simulator or benchmark frame from the leaf, so runtime
// work (allocation, channel operations) counts against the code that
// asked for it. Stacks with no such frame are runtime's own: GC workers,
// or the scheduler.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// frameBucket maps one function name to its bucket, or "" for code
// outside the simulator and the benchmark.
func frameBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."):
		return "bench"
	case strings.HasPrefix(fn, "repro."):
		return "nfssim"
	case !strings.HasPrefix(fn, "repro/internal/"):
		if strings.HasPrefix(fn, "repro/") {
			return "other"
		}
		return ""
	}
	pkg, rest, _ := strings.Cut(strings.TrimPrefix(fn, "repro/internal/"), ".")
	if pkg == "sim" {
		return simBucket(rest)
	}
	for _, b := range shareBuckets {
		if b == pkg {
			return b
		}
	}
	return "other"
}

// simBucket splits the sim kernel by what a function does.
func simBucket(fn string) string {
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	switch {
	case has("(*Profiler).", "(*CPUPool).Use"):
		return "sim.profiler"
	case has("(*Sim).handoff", "(*Proc).park", "(*Proc).Sleep", "(*Proc).Yield", "(*Sim).Go", "(*Sim).Run"):
		return "sim.handoff"
	case has("(*eventQueue).", "eventLess", "(*Sim).At", "(*Sim).After", "(*Sim).wake",
		"(*Sim).alloc", "(*Sim).recycle", "(*Sim).schedule", "Event.Cancel"):
		return "sim.queue"
	}
	return "sim.other"
}

// profileShares decodes a gzipped CPU profile and returns every bucket's
// share of its samples (all buckets present, summing to 1) and the
// sample count.
func profileShares(data []byte) (map[string]float64, int64, error) {
	samples, err := decodeProfile(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	byBucket := make(map[string]int64, len(shareBuckets))
	var total int64
	for _, s := range samples {
		byBucket[bucketOf(s.stack)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, 0, errors.New("pprof: profile has no samples")
	}
	shares := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		shares[b] = float64(byBucket[b]) / float64(total)
	}
	return shares, total, nil
}
