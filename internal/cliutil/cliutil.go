// Package cliutil holds small helpers shared by the cmd/ executables.
package cliutil

import (
	"fmt"
	"math"
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

// ParseBytes parses a byte size with an optional K/M/G suffix ("64M"). A
// negative size, or one that overflows int64, is an error.
func ParseBytes(s string) (int64, error) {
	num := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(num, "G"):
		mult, num = 1<<30, strings.TrimSuffix(num, "G")
	case strings.HasSuffix(num, "M"):
		mult, num = 1<<20, strings.TrimSuffix(num, "M")
	case strings.HasSuffix(num, "K"):
		mult, num = 1<<10, strings.TrimSuffix(num, "K")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad byte size %q: %w", s, err)
	}
	if v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("cliutil: byte size %q is negative or overflows int64", s)
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
