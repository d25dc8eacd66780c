// Command reachfixture holds one case of each finding the state scans
// report, and one of each look-alike they must not report.
package main

import (
	"bytes"
	"fmt"
	"os"
)

func main() {
	cfg := DefaultConfig()
	cfg.Set = len(os.Args)
	fmt.Println(NewWidget("app").Name, Total(cfg), Count([]int{1, 2}), Describe(1))
}

// Widget's written is never read; logged is read only by a test's log
// line. Both are findings.
type Widget struct{ Name, written, logged string }

func NewWidget(name string) *Widget { return &Widget{Name: name, written: name, logged: name} }

// Config's Unset is set only by its default and a clamp; main sets Set.
type Config struct{ Unset, Set int }

func DefaultConfig() Config { return Config{Unset: 3, Set: 4} }

func Total(c Config) int {
	if c.Unset < 1 {
		c.Unset = 1
	}
	return c.Unset + c.Set
}

// key is read only as a map key, record only through %+v, and sink's
// Buffer only through the io.Writer it satisfies.
type key struct{ a, b int }
type record struct{ at, n int }
type sink struct{ *bytes.Buffer }

func Count(xs []int) int {
	seen := map[key]bool{}
	for i, x := range xs {
		seen[key{a: i, b: x}] = true
	}
	var buf bytes.Buffer
	fmt.Fprintf(sink{&buf}, "%+v", record{at: len(xs), n: len(seen)})
	return buf.Len()
}

// Mode's ModeCompared is only compared against: a finding. Level's
// constants are produced by a conversion.
type Mode int
type Level uint8

const (
	ModeProduced Mode = iota
	ModeCompared
)

const (
	LevelLow Level = iota
	LevelHigh
)

func Describe(b byte) bool {
	m := ModeProduced
	switch m {
	case ModeCompared:
		return true
	}
	return m == ModeCompared || Level(b) == LevelHigh || Level(b) == LevelLow
}
