package report

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// JSON document types: a machine-readable rendering of the full analysis,
// for downstream tooling (plotting, CI regression checks, dashboards).
// Heavy matrices are included as dense rows; consumers needing sparse
// forms should read the CSV artifacts instead.

// JSONReport mirrors Report.
type JSONReport struct {
	Title    string        `json:"title"`
	Chapters []JSONChapter `json:"chapters"`
}

// JSONChapter mirrors Chapter.
type JSONChapter struct {
	App         string             `json:"app"`
	Procs       int                `json:"procs"`
	WallSeconds float64            `json:"wall_seconds"`
	Profile     []JSONProfileRow   `json:"profile"`
	Topology    JSONTopology       `json:"topology"`
	Density     map[string]JSONMap `json:"density_maps"`
	Callsites   []JSONCallsiteRow  `json:"callsites,omitempty"`
	WaitState   *JSONWaitState     `json:"wait_state,omitempty"`
	Temporal    *JSONTemporal      `json:"temporal,omitempty"`
	Sizes       []JSONSizeRow      `json:"message_sizes,omitempty"`
}

// JSONProfileRow is one call kind's aggregate.
type JSONProfileRow struct {
	Call   string `json:"call"`
	Hits   int64  `json:"hits"`
	TimeNs int64  `json:"time_ns"`
	Bytes  int64  `json:"bytes"`
}

// JSONTopology summarizes the communication matrix.
type JSONTopology struct {
	Ranks      int     `json:"ranks"`
	TotalBytes int64   `json:"total_bytes"`
	Edges      int     `json:"edges"`
	Degrees    []int   `json:"degrees"`
	BytesRows  [][]int `json:"bytes_matrix,omitempty"`
}

// JSONMap is a per-rank metric vector plus its summary.
type JSONMap struct {
	Values    []float64 `json:"values"`
	Min       float64   `json:"min"`
	Max       float64   `json:"max"`
	Mean      float64   `json:"mean"`
	Imbalance float64   `json:"imbalance"`
}

// JSONCallsiteRow is one call-site aggregate.
type JSONCallsiteRow struct {
	Site   string `json:"site"`
	Call   string `json:"call"`
	Hits   int64  `json:"hits"`
	TimeNs int64  `json:"time_ns"`
	Bytes  int64  `json:"bytes"`
}

// JSONWaitState summarizes the late-sender analysis.
type JSONWaitState struct {
	Pairs       int64     `json:"pairs"`
	TotalLateNs int64     `json:"total_late_ns"`
	PerRankNs   []float64 `json:"per_rank_ns"`
}

// JSONTemporal is the communication-time series.
type JSONTemporal struct {
	WindowNs int64     `json:"window_ns"`
	CommNs   []float64 `json:"communication_ns"`
}

// JSONSizeRow is one message-size bucket.
type JSONSizeRow struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Hits  int64 `json:"hits"`
	Bytes int64 `json:"bytes"`
}

// mapToJSON converts a density vector.
func mapToJSON(values []float64) JSONMap {
	st := Stats(values)
	return JSONMap{Values: values, Min: st.Min, Max: st.Max, Mean: st.Mean, Imbalance: st.Imbalance}
}

// ToJSON converts the report to its machine-readable form.
// includeMatrix controls whether the dense byte matrix is embedded (it is
// O(ranks²)).
func (r *Report) ToJSON(includeMatrix bool) JSONReport {
	out := JSONReport{Title: r.Title}
	for _, ch := range r.Chapters {
		jc := JSONChapter{
			App:         ch.App,
			Procs:       ch.Procs,
			WallSeconds: ch.WallTime.Seconds(),
			Density:     map[string]JSONMap{},
		}
		for _, row := range profileRows(nil, ch.Profiler) {
			jc.Profile = append(jc.Profile, JSONProfileRow{
				Call: row.Kind.String(), Hits: row.Hits, TimeNs: row.TimeNs, Bytes: row.Bytes,
			})
		}

		topo := readTopology(ch.Topology)
		jc.Topology = JSONTopology{Ranks: topo.n, TotalBytes: topo.bytes, Edges: len(topo.edges), Degrees: topo.degree}
		if includeMatrix {
			cells := make([]int, topo.n*topo.n)
			jc.Topology.BytesRows = make([][]int, topo.n)
			for s := range jc.Topology.BytesRows {
				jc.Topology.BytesRows[s] = cells[s*topo.n : (s+1)*topo.n]
			}
			for _, e := range topo.edges {
				jc.Topology.BytesRows[e.Src][e.Dst] = int(e.Bytes)
			}
		}

		jc.Density["send_hits"] = mapToJSON(ch.Density.AppendMap(nil, trace.KindSend, analysis.MetricHits))
		jc.Density["p2p_bytes"] = mapToJSON(ch.Density.AppendP2PSizeMap(nil))
		jc.Density["wait_time_ns"] = mapToJSON(ch.Density.AppendWaitTimeMap(nil))
		jc.Density["collective_time_ns"] = mapToJSON(ch.Density.AppendCollectiveTimeMap(nil))

		if ch.Callsites != nil {
			for _, row := range ch.Callsites.AppendTop(nil, 0) {
				site := row.Label
				if site == "" {
					site = "ctx:" + strconv.FormatUint(uint64(row.Ctx), 10)
				}
				jc.Callsites = append(jc.Callsites, JSONCallsiteRow{
					Site: site, Call: row.Kind.String(),
					Hits: row.Stat.Hits, TimeNs: row.Stat.TimeNs, Bytes: row.Stat.Bytes,
				})
			}
		}
		if ch.WaitState != nil {
			jc.WaitState = &JSONWaitState{
				Pairs:       ch.WaitState.Pairs(),
				TotalLateNs: ch.WaitState.TotalLateNs(),
				PerRankNs:   ch.WaitState.AppendLateSenderMap(nil),
			}
		}
		if ch.Temporal != nil {
			jc.Temporal = &JSONTemporal{
				WindowNs: ch.Temporal.Window(),
				CommNs:   ch.Temporal.AppendCommunicationTimeSeries(nil),
			}
		}
		if ch.Sizes != nil {
			for _, b := range ch.Sizes.AppendHistogram(nil) {
				jc.Sizes = append(jc.Sizes, JSONSizeRow{Lo: b.Lo, Hi: b.Hi, Hits: b.Hits, Bytes: b.Bytes})
			}
		}
		out.Chapters = append(out.Chapters, jc)
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer, includeMatrix bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.ToJSON(includeMatrix))
}
