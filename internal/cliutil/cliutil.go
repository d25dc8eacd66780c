// Package cliutil holds small helpers shared by the cmd/ executables.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// ResolvePackFormat resolves the -format flag into a concrete pack wire
// format: 0 (the flag's default) means v1, anything else must be a known
// version. Errors carry no usage hint — the command adds it.
func ResolvePackFormat(format int) (int, error) {
	if format == 0 {
		return trace.PackV1, nil
	}
	if format < trace.PackV1 || format > trace.PackV3 {
		return 0, fmt.Errorf("cliutil: -format %d: pack formats are %d..%d", format, trace.PackV1, trace.PackV3)
	}
	return format, nil
}

// ExclusiveModes checks that at most one mode flag of a command is set;
// names lists the set ones ("-tree", "-overload", ...).
func ExclusiveModes(names ...string) error {
	if len(names) > 1 {
		return fmt.Errorf("cliutil: %s are mutually exclusive", strings.Join(names, " and "))
	}
	return nil
}

// ParseInts parses a comma-separated list of integers ("64,256,1024").
func ParseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cliutil: empty integer list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated list of floats ("0.25,0.5,0.75").
func ParseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cliutil: empty float list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad float %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseBytes parses a byte size with an optional K/M/G suffix ("64M").
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad byte size %q: %w", s, err)
	}
	return v * mult, nil
}

// AppSpec is one parsed NAME.CLASS@PROCS item.
type AppSpec struct {
	// Kind is the benchmark name ("BT", "EulerMHD", ...).
	Kind string
	// Class is the NAS class byte ('C' when omitted).
	Class byte
	// Procs is the requested process count (before benchmark snapping).
	Procs int
}

// ParseApps parses a comma-separated list of NAME.CLASS@PROCS items
// ("LU.D@1024,CG.C@128"). The class defaults to C when omitted.
func ParseApps(s string) ([]AppSpec, error) {
	var out []AppSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		namePart, procsPart, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("cliutil: bad app %q (want NAME.CLASS@PROCS)", item)
		}
		procs, err := strconv.Atoi(strings.TrimSpace(procsPart))
		if err != nil || procs < 1 {
			return nil, fmt.Errorf("cliutil: bad proc count in %q", item)
		}
		kind, classPart, hasClass := strings.Cut(namePart, ".")
		spec := AppSpec{Kind: strings.TrimSpace(kind), Class: 'C', Procs: procs}
		if hasClass {
			classPart = strings.TrimSpace(classPart)
			if len(classPart) != 1 {
				return nil, fmt.Errorf("cliutil: bad class in %q", item)
			}
			spec.Class = strings.ToUpper(classPart)[0]
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: no applications given")
	}
	return out, nil
}

// BenchSpec is one parsed NAME.CLASS benchmark item.
type BenchSpec struct {
	// Kind is the benchmark name.
	Kind string
	// Class is the NAS class byte (0 for class-less kinds like EulerMHD).
	Class byte
}

// ParseBenches parses a comma-separated list of NAME.CLASS items
// ("BT.C,SP.D,EulerMHD").
func ParseBenches(s string) ([]BenchSpec, error) {
	var out []BenchSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if strings.EqualFold(item, "EulerMHD") || strings.EqualFold(item, "euler") {
			out = append(out, BenchSpec{Kind: "EulerMHD"})
			continue
		}
		kind, classPart, ok := strings.Cut(item, ".")
		if !ok || len(strings.TrimSpace(classPart)) != 1 {
			return nil, fmt.Errorf("cliutil: bad benchmark %q (want NAME.CLASS, e.g. SP.C)", item)
		}
		out = append(out, BenchSpec{
			Kind:  strings.ToUpper(strings.TrimSpace(kind)),
			Class: strings.ToUpper(strings.TrimSpace(classPart))[0],
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: no benchmarks selected")
	}
	return out, nil
}
