package vmpi

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// formatExchange streams one block from a writer that declares pack format
// writerFormat (0 = never calls SetPackFormat) to a reader. It returns the
// payloads the reader was served, the error its Read ended on, and how many
// messages the run moved once the writer started.
func formatExchange(t *testing.T, writerFormat int, payload string) (got []string, readErr error, messages int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
			s.Rank().World().AttachTelemetry(reg)
			var m Map
			if err := s.MapPartitions(1, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if writerFormat != 0 {
				st.SetPackFormat(writerFormat)
			}
			if err := st.OpenMap(&m, "w"); err != nil {
				t.Error(err)
				return
			}
			if err := st.Write([]byte(payload), int64(len(payload))); err != nil {
				t.Error(err)
			}
			if writerFormat > DefaultMaxPackFormat {
				// The reader errors out: skip Close, which would wait for a
				// reader that is gone.
				return
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
		progSpec{"r", 1, func(s *Session) {
			var m Map
			if err := s.MapPartitions(0, MapRoundRobin, &m); err != nil {
				t.Error(err)
				return
			}
			st := NewStream(s, 1024, BalanceRoundRobin)
			if err := st.OpenMap(&m, "r"); err != nil {
				t.Error(err)
				return
			}
			for {
				blk, err := st.Read(false)
				if err != nil {
					readErr = err
					return
				}
				if blk == nil {
					break
				}
				got = append(got, string(blk.Payload))
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}},
	)
	return got, readErr, reg.Counter("net.messages").Value()
}

// TestStreamFormatNegotiation covers the happy path: a writer announcing
// pack format v2 at open is accepted by a default reader, and the payload
// path is unchanged.
func TestStreamFormatNegotiation(t *testing.T) {
	got, err, _ := formatExchange(t, 2, "packed")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "packed" {
		t.Fatalf("payload = %v", got)
	}
}

// TestStreamFormatDefaultIsV1 pins the compatibility contract: a writer
// that never calls SetPackFormat sends no hello — the message sequence is
// identical to the seed, one message short of an announcing writer's.
func TestStreamFormatDefaultIsV1(t *testing.T) {
	_, err, silent := formatExchange(t, 0, "record")
	if err != nil {
		t.Fatalf("a reader refused a default writer: %v", err)
	}
	_, err, announced := formatExchange(t, 2, "record")
	if err != nil {
		t.Fatal(err)
	}
	if announced != silent+1 {
		t.Fatalf("announcing writer moved %d messages, default writer %d: want exactly the hello more", announced, silent)
	}
}

// TestStreamFormatRejectedAboveCeiling: a reader offered a format this
// engine does not have fails its Read with an error naming both versions,
// instead of misparsing packs.
func TestStreamFormatRejectedAboveCeiling(t *testing.T) {
	_, err, _ := formatExchange(t, DefaultMaxPackFormat+1, "packed")
	if err == nil {
		t.Fatalf("reader accepted format v%d", DefaultMaxPackFormat+1)
	}
	for _, w := range []string{"format v4", "up to v3"} {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("rejection should name both formats, got: %v", err)
		}
	}
}

// TestSetPackFormatValidation pins the API edges: version bounds. The
// reader's ceiling is TestStreamFormatRejectedAboveCeiling's case.
func TestSetPackFormatValidation(t *testing.T) {
	st := &Stream{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetPackFormat(-1) did not panic")
			}
		}()
		st.SetPackFormat(-1)
	}()
	st.SetPackFormat(2)
	if st.packFormat != 2 {
		t.Fatalf("packFormat = %d", st.packFormat)
	}
}

// TestStreamFormatV3Negotiation: the v3 hello travels like v2's — the
// default reader ceiling admits it.
func TestStreamFormatV3Negotiation(t *testing.T) {
	got, err, _ := formatExchange(t, 3, "dictionary")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "dictionary" {
		t.Fatalf("payload = %v", got)
	}
}
