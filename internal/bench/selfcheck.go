package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// SelfCheckOptions selects a self-check.
type SelfCheckOptions struct {
	// Exe is the benchmark binary to run (the running one).
	Exe string
	// Seed is every run's seed.
	Seed int64
	// Seconds is each run's measured phase.
	Seconds float64
	// Workloads restricts the check (nil = all).
	Workloads []string
}

// contractLine is the last line a run prints.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// runOnce executes the binary on one workload and parses its verdict.
func runOnce(exe, workload string, seed int64, seconds float64) (*contractLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: %s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var cl contractLine
	if err := json.Unmarshal(lines[len(lines)-1], &cl); err != nil {
		return nil, fmt.Errorf("bench: %s seed %d: last line is not the result object: %w", workload, seed, err)
	}
	if !cl.Correct {
		return nil, fmt.Errorf("bench: %s seed %d: run reported correct=false", workload, seed)
	}
	return &cl, nil
}

// selfCheckRuns is the number of runs in each of the self-check's sets:
// as many as the benchmark driver makes per set, so the spreads printed
// here and the ones it computes are of the same kind. With five, a gap
// between two medians of identical code passed half a bound about one
// time in ten on the noisiest rows.
const selfCheckRuns = 10

// SelfCheck runs every workload as two interleaved sets (A B A B ...) of
// the same binary on one seed and prints, per metric, both medians, both quartile
// spreads and the gap between the medians against the metric's bound.
// The sets run identical code, so any gap is noise: the check fails when
// a gap exceeds half its bound, or a spread its bound. The table is
// Markdown; internal/bench/README.md holds a copy.
func SelfCheck(out io.Writer, o SelfCheckOptions) (bool, error) {
	names := o.Workloads
	if len(names) == 0 {
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "Self-check: %d runs per set, %g s each, seed %d, sets interleaved A B A B.\n\n", selfCheckRuns, o.Seconds, o.Seed)
	fmt.Fprintf(w, "| workload | metric | median A | median B | IQR/med A | IQR/med B | gap | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
	w.Flush()
	allOK := true
	for _, name := range names {
		if _, ok := FindWorkload(name); !ok {
			return false, fmt.Errorf("bench: unknown workload %q", name)
		}
		sets := [2]map[string][]float64{{}, {}}
		for k := 0; k < selfCheckRuns; k++ {
			for set := 0; set < 2; set++ {
				cl, err := runOnce(o.Exe, name, o.Seed, o.Seconds)
				if err != nil {
					return false, err
				}
				for _, d := range EndToEnd {
					v, ok := cl.Metrics[d.Name]
					if !ok {
						return false, fmt.Errorf("bench: %s printed no %s", name, d.Name)
					}
					sets[set][d.Name] = append(sets[set][d.Name], v.Value)
				}
			}
		}
		for _, d := range EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := Median(a), Median(b)
			spread := func(vs []float64, med float64) float64 {
				q1, q3 := Quartiles(vs)
				if med == 0 {
					return 0
				}
				return (q3 - q1) / math.Abs(med)
			}
			sa, sb := spread(a, ma), spread(b, mb)
			gap := 0.0
			if ma != 0 {
				gap = math.Abs(mb-ma) / math.Abs(ma)
			}
			verdict := "ok"
			switch {
			case gap > d.Bound/2:
				verdict = "FAIL gap"
				allOK = false
			case d.Name != "setup_s" && math.Max(sa, sb) > d.Bound:
				verdict = "FAIL spread"
				allOK = false
			case d.Name != "setup_s" && math.Max(sa, sb) > d.Bound/3:
				verdict = "ok (spread > bound/3)"
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				name, d.Name, ma, mb, sa*100, sb*100, gap*100, d.Bound*100, verdict)
		}
		w.Flush()
	}
	fmt.Fprintf(w, "\n%s\n", map[bool]string{true: "self-check passed: every gap is within half its bound", false: "self-check FAILED"}[allOK])
	return allOK, nil
}

// WorkloadNames lists the workload names, for messages.
func WorkloadNames() string {
	var ns []string
	for _, w := range Workloads {
		ns = append(ns, w.Name)
	}
	return strings.Join(ns, ", ")
}
