package instrument

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Encode serializes the profile as a compact binary table (kind, hits,
// time, bytes per entry, sorted by kind for determinism). It is the wire
// format used when profiles are merged across processes — for example by
// a TBON reduction filter or a final gather.
func (p CallProfile) Encode() []byte {
	kinds := make([]trace.Kind, 0, len(p))
	for k := range p {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	buf := make([]byte, 4+len(kinds)*25)
	binary.LittleEndian.PutUint32(buf, uint32(len(kinds)))
	off := 4
	for _, k := range kinds {
		st := p[k]
		buf[off] = byte(k)
		binary.LittleEndian.PutUint64(buf[off+1:], uint64(st.Hits))
		binary.LittleEndian.PutUint64(buf[off+9:], uint64(st.TimeNs))
		binary.LittleEndian.PutUint64(buf[off+17:], uint64(st.Bytes))
		off += 25
	}
	return buf
}

// DecodeCallProfile parses a buffer produced by Encode.
func DecodeCallProfile(buf []byte) (CallProfile, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("instrument: profile buffer too short (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n*25 {
		return nil, fmt.Errorf("instrument: profile buffer truncated: %d entries need %d bytes, have %d",
			n, 4+n*25, len(buf))
	}
	p := make(CallProfile, n)
	off := 4
	for i := 0; i < n; i++ {
		k := trace.Kind(buf[off])
		p[k] = &CallStats{
			Hits:   int64(binary.LittleEndian.Uint64(buf[off+1:])),
			TimeNs: int64(binary.LittleEndian.Uint64(buf[off+9:])),
			Bytes:  int64(binary.LittleEndian.Uint64(buf[off+17:])),
		}
		off += 25
	}
	return p, nil
}

// MergeProfile folds another profile into p.
func (p CallProfile) MergeProfile(o CallProfile) {
	for k, st := range o {
		dst := p[k]
		if dst == nil {
			dst = &CallStats{}
			p[k] = dst
		}
		dst.Hits += st.Hits
		dst.TimeNs += st.TimeNs
		dst.Bytes += st.Bytes
	}
}
