package analysis

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/otf2lite"
	"repro/internal/trace"
)

// ExportModule is the selective trace-export knowledge source the paper
// sketches as future work ("a module, acting as an IO proxy, to generate
// selective traces in the OTF2 format in order to combine our analysis
// with existing tools such as Vampir"). Events passing the filter are
// re-encoded into v1 packs; WriteArchive emits them as an otf2lite archive,
// so a post-mortem tool can consume exactly the selected slice of the run.
type ExportModule struct {
	mu       sync.Mutex
	filter   func(*trace.Event) bool
	builder  *trace.PackBuilder
	chunks   [][]byte
	exported int64
	dropped  int64
}

// NewExportModule creates an export module keeping events for which filter
// returns true (nil keeps everything).
func NewExportModule(appID uint32, filter func(*trace.Event) bool) *ExportModule {
	return &ExportModule{
		filter:  filter,
		builder: trace.NewPackBuilder(appID, -1, trace.MinRecordSize, 1<<16),
	}
}

// Add offers one event to the exporter.
func (m *ExportModule) Add(ev *trace.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.filter != nil && !m.filter(ev) {
		m.dropped++
		return
	}
	m.exported++
	if m.builder.Add(ev) {
		m.chunks = append(m.chunks, m.builder.Take())
	}
}

// Exported reports how many events passed the filter.
func (m *ExportModule) Exported() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exported
}

// Dropped reports how many events the filter rejected.
func (m *ExportModule) Dropped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// WriteArchive flushes the selected trace as a structured otf2lite
// archive (definition tables + delta-encoded events, sorted per location
// like OTF2's streams) — the export format the paper targets for Vampir
// interoperability. It drains the module, which can keep accumulating
// afterwards.
func (m *ExportModule) WriteArchive(w io.Writer) error {
	aw := otf2lite.NewWriter()
	m.mu.Lock()
	chunks := m.chunks
	if last := m.builder.Take(); last != nil {
		chunks = append(chunks, last)
	}
	m.chunks = nil
	m.mu.Unlock()
	for _, c := range chunks {
		if _, err := trace.DecodeEach(c, func(e *trace.Event) { aw.Add(e) }); err != nil {
			return err
		}
	}
	aw.Sort()
	return aw.Finish(w)
}

// EnableExport taps an export module into the pipeline's pack folds and
// returns it. name distinguishes several exporters on one level.
func (p *Pipeline) EnableExport(name string, filter func(*trace.Event) bool) (*ExportModule, error) {
	p.mu.Lock()
	if p.reps != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("analysis: trace export is incompatible with replica mode on level %q", p.level)
	}
	p.exports++
	p.mu.Unlock()
	m := NewExportModule(0, filter)
	if err := p.addTap("export-"+name, m.Add); err != nil {
		return nil, err
	}
	return m, nil
}
