package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

func sampleReport() *Report {
	prof := &analysis.ProfilerModule{}
	topo := analysis.NewTopologyModule(4)
	dens := analysis.NewDensityModule(4)
	for i := int32(0); i < 4; i++ {
		ev := trace.Event{Kind: trace.KindSend, Rank: i, Peer: (i + 1) % 4, Size: 2048, TStart: 0, TEnd: 300}
		prof.Add(&ev)
		topo.Add(&ev)
		dens.Add(&ev)
		wv := trace.Event{Kind: trace.KindWait, Rank: i, Peer: -1, TStart: 0, TEnd: int64(50 * (i + 1))}
		prof.Add(&wv)
		dens.Add(&wv)
	}
	return &Report{
		Title: "online profiling report",
		Chapters: []*Chapter{
			{App: "SP.C_64", Procs: 4, WallTime: time.Second, Profiler: prof, Topology: topo, Density: dens},
			{App: "CG.D", Procs: 4, WallTime: 2 * time.Second, Profiler: prof, Topology: topo, Density: dens},
		},
	}
}

func TestRenderLaTeXStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().RenderLaTeX(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"\\documentclass",
		"\\begin{document}",
		"\\end{document}",
		"\\section{SP.C\\_64 (4 processes)}",
		"\\section{CG.D (4 processes)}",
		"MPI\\_Send",
		"\\begin{tabular}{lrrr}",
		"Degree histogram:",
		"\\begin{verbatim}",
		"\\paragraph{wait time}",
		"\\clearpage", // between the two chapters
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("LaTeX output missing %q", want)
		}
	}
	// Balanced environments.
	if strings.Count(out, "\\begin{verbatim}") != strings.Count(out, "\\end{verbatim}") {
		t.Fatal("unbalanced verbatim environments")
	}
	if strings.Count(out, "\\begin{tabular}") != strings.Count(out, "\\end{tabular}") {
		t.Fatal("unbalanced tabular environments")
	}
	// No raw underscores outside verbatim blocks (TeX would choke).
	inVerb := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "\\begin{verbatim}"):
			inVerb = true
		case strings.Contains(line, "\\end{verbatim}"):
			inVerb = false
		case !inVerb && strings.Contains(strings.ReplaceAll(line, "\\_", ""), "_") &&
			!strings.Contains(line, "dot"):
			t.Fatalf("unescaped underscore in %q", line)
		}
	}
}

func TestLatexEscape(t *testing.T) {
	got := latexEscape(`BT.C_64 & 50% #1 {x} $y$ ~z^`)
	for _, want := range []string{`\_`, `\&`, `\%`, `\#`, `\{`, `\}`, `\$`, `\textasciitilde{}`, `\textasciicircum{}`} {
		if !strings.Contains(got, want) {
			t.Fatalf("escape missing %q in %q", want, got)
		}
	}
	if latexEscape(`a\b`) != `a\textbackslash{}b` {
		t.Fatalf("backslash escape wrong: %q", latexEscape(`a\b`))
	}
}
