package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// latexEscape guards the characters TeX treats specially in the names we
// interpolate (benchmark names, call names).
func latexEscape(s string) string {
	r := strings.NewReplacer(
		`\`, `\textbackslash{}`,
		"_", `\_`, "&", `\&`, "%", `\%`, "$", `\$`, "#", `\#`,
		"{", `\{`, "}", `\}`, "~", `\textasciitilde{}`, "^", `\textasciicircum{}`,
	)
	return r.Replace(s)
}

// RenderLaTeX writes the report as a self-contained compilable LaTeX
// document — the output format of the paper's tool ("a profiling report is
// a latex document of 20 to 70 pages, depending on verbosity"), with one
// chapter-level section per instrumented application: the MPI profile
// table, the communication-matrix heat map, the degree histogram and the
// density maps. Graph figures reference the DOT files emitted alongside
// (the paper invokes Graphviz the same way).
func (r *Report) RenderLaTeX(w io.Writer) error {
	var b strings.Builder
	b.WriteString("\\documentclass[11pt]{article}\n")
	b.WriteString("\\usepackage[margin=2.5cm]{geometry}\n")
	b.WriteString("\\usepackage{booktabs}\n")
	b.WriteString("\\setlength{\\parindent}{0pt}\n")
	fmt.Fprintf(&b, "\\title{%s}\n", latexEscape(r.Title))
	b.WriteString("\\author{online coupling analysis engine}\n\\date{\\today}\n")
	b.WriteString("\\begin{document}\n\\maketitle\n")
	fmt.Fprintf(&b, "This report covers %d concurrently profiled application(s), one section each.\n", len(r.Chapters))

	for i, ch := range r.Chapters {
		fmt.Fprintf(&b, "\n\\section{%s (%d processes)}\n", latexEscape(ch.App), ch.Procs)
		fmt.Fprintf(&b, "Wall time (MPI\\_Init..MPI\\_Finalize): %.3f\\,s.\n\n", ch.WallTime.Seconds())

		// Profile table.
		b.WriteString("\\subsection{MPI profile}\n")
		b.WriteString("\\begin{tabular}{lrrr}\n\\toprule\ncall & hits & time & total size \\\\\n\\midrule\n")
		for _, row := range profileRows(nil, ch.Profiler) {
			fmt.Fprintf(&b, "%s & %d & %s & %s \\\\\n",
				latexEscape(row.Kind.String()), row.Hits,
				latexEscape(time.Duration(row.TimeNs).String()),
				latexEscape(string(buf(nil).size(float64(row.Bytes), 0))))
		}
		b.WriteString("\\bottomrule\n\\end{tabular}\n")

		// Topology.
		b.WriteString("\n\\subsection{Point-to-point topology}\n")
		topo := readTopology(ch.Topology)
		fmt.Fprintf(&b, "Total point-to-point volume: %s. ", latexEscape(string(buf(nil).size(float64(topo.bytes), 0))))
		b.WriteString("Degree histogram:")
		for d, ranks := range topo.degreeHistogram() {
			if ranks > 0 {
				fmt.Fprintf(&b, " %d neighbours $\\times$ %d ranks;", d, ranks)
			}
		}
		fmt.Fprintf(&b, "\n\\begin{verbatim}\n%s\\end{verbatim}\n",
			topo.heatmap(nil, analysis.MetricBytes, 60))
		fmt.Fprintf(&b, "The communication graph is emitted as \\texttt{%s\\_topology.dot} (render with Graphviz).\n",
			latexEscape(strings.ReplaceAll(ch.App, ".", "_")))

		// Density maps.
		b.WriteString("\n\\subsection{Density maps}\n")
		maps := []struct {
			name   string
			values []float64
		}{
			{"MPI\\_Send hits", ch.Density.AppendMap(nil, trace.KindSend, analysis.MetricHits)},
			{"point-to-point total size", ch.Density.AppendP2PSizeMap(nil)},
			{"wait time", ch.Density.AppendWaitTimeMap(nil)},
			{"collective time", ch.Density.AppendCollectiveTimeMap(nil)},
		}
		for _, m := range maps {
			st := Stats(m.values)
			if st.Max == 0 {
				continue
			}
			fmt.Fprintf(&b, "\\paragraph{%s} min %.4g, max %.4g, mean %.4g, imbalance %.3f.\n",
				m.name, st.Min, st.Max, st.Mean, st.Imbalance)
			fmt.Fprintf(&b, "\\begin{verbatim}\n%s\\end{verbatim}\n", DensityASCII(m.values, 60))
		}
		if ch.Callsites != nil {
			rows := ch.Callsites.AppendTop(nil, 10)
			if len(rows) > 0 {
				b.WriteString("\n\\subsection{Top call sites}\n")
				b.WriteString("\\begin{tabular}{llrrr}\n\\toprule\nsite & call & hits & time & total size \\\\\n\\midrule\n")
				for _, row := range rows {
					label := row.Label
					if label == "" {
						label = fmt.Sprintf("ctx:%d", row.Ctx)
					}
					fmt.Fprintf(&b, "%s & %s & %d & %s & %s \\\\\n",
						latexEscape(label), latexEscape(row.Kind.String()), row.Stat.Hits,
						latexEscape(time.Duration(row.Stat.TimeNs).String()),
						latexEscape(string(buf(nil).size(float64(row.Stat.Bytes), 0))))
				}
				b.WriteString("\\bottomrule\n\\end{tabular}\n")
			}
		}
		if ch.Temporal != nil && ch.Temporal.Buckets() > 0 {
			b.WriteString("\n\\subsection{Temporal map}\n")
			series := ch.Temporal.AppendCommunicationTimeSeries(nil)
			st := Stats(series)
			fmt.Fprintf(&b, "Communication time per %s window; peak %s, mean %s.\n",
				latexEscape(time.Duration(ch.Temporal.Window()).String()),
				latexEscape(time.Duration(st.Max).String()),
				latexEscape(time.Duration(st.Mean).String()))
			fmt.Fprintf(&b, "\\begin{verbatim}\n|%s|\n\\end{verbatim}\n", buf(nil).sparkline(series, 72))
		}
		if ch.WaitState != nil {
			b.WriteString("\n\\subsection{Wait-state analysis}\n")
			fmt.Fprintf(&b, "%d send/receive pairs matched; total late-sender wait %s.\n",
				ch.WaitState.Pairs(), latexEscape(time.Duration(ch.WaitState.TotalLateNs()).String()))
			late := ch.WaitState.AppendLateSenderMap(nil)
			if st := Stats(late); st.Max > 0 {
				fmt.Fprintf(&b, "\\begin{verbatim}\n%s\\end{verbatim}\n", DensityASCII(late, 60))
			}
		}
		if i < len(r.Chapters)-1 {
			b.WriteString("\\clearpage\n")
		}
	}
	b.WriteString("\\end{document}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
