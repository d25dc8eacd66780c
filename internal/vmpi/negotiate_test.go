package vmpi

import (
	"strings"
	"testing"
)

// formatExchange streams one block from a writer that declares pack format
// writerFormat (0 = never calls SetPackFormat) to a reader whose acceptance
// ceiling is lowered to ceiling (0 = the default). It returns the payloads
// the reader was served, the error its Read ended on, and how many messages
// the run moved.
func formatExchange(t *testing.T, writerFormat, ceiling int, payload string) (got []string, readErr error, messages int64) {
	t.Helper()
	accepts := ceiling
	if accepts == 0 {
		accepts = DefaultMaxPackFormat
	}
	l := runMPMD(t,
		progSpec{"w", 1, func(s *Session) {
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
			if writerFormat > accepts {
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
			st.maxPackFormat = ceiling
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
	return got, readErr, l.world.Net().Messages()
}

// TestStreamFormatNegotiation covers the happy path: a writer announcing
// pack format v2 at open is accepted by a default reader, and the payload
// path is unchanged.
func TestStreamFormatNegotiation(t *testing.T) {
	got, err, _ := formatExchange(t, 2, 0, "packed")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "packed" {
		t.Fatalf("payload = %v", got)
	}
}

// TestStreamFormatDefaultIsV1 pins the compatibility contract: a writer
// that never calls SetPackFormat sends no hello — the message sequence is
// identical to the seed, one message short of an announcing writer's — so
// even a strict v1 reader accepts it.
func TestStreamFormatDefaultIsV1(t *testing.T) {
	_, err, silent := formatExchange(t, 0, 1, "record")
	if err != nil {
		t.Fatalf("a strict v1 reader refused a default writer: %v", err)
	}
	_, err, announced := formatExchange(t, 2, 0, "record")
	if err != nil {
		t.Fatal(err)
	}
	if announced != silent+1 {
		t.Fatalf("announcing writer moved %d messages, default writer %d: want exactly the hello more", announced, silent)
	}
}

// TestStreamFormatRejectedAboveCeiling: a reader capped below the writer's
// announced format fails its Read with an error naming both versions,
// instead of misparsing packs — and so does a default reader offered a
// format this engine does not have.
func TestStreamFormatRejectedAboveCeiling(t *testing.T) {
	for _, c := range []struct {
		writer, ceiling int
		want            []string
	}{
		{2, 1, []string{"format v2", "up to v1"}},
		{DefaultMaxPackFormat + 1, 0, []string{"format v4", "up to v3"}},
	} {
		_, err, _ := formatExchange(t, c.writer, c.ceiling, "packed")
		if err == nil {
			t.Fatalf("reader (ceiling %d) accepted format v%d", c.ceiling, c.writer)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("rejection should name both formats, got: %v", err)
			}
		}
	}
}

// TestSetPackFormatValidation pins the API edges: version bounds. The
// default ceiling is TestStreamFormatRejectedAboveCeiling's second case.
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
	got, err, _ := formatExchange(t, 3, 0, "dictionary")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "dictionary" {
		t.Fatalf("payload = %v", got)
	}
}

// TestStreamFormatV3RejectedByV2Reader: a reader whose ceiling is v2
// refuses a v3 writer with an error naming both versions.
func TestStreamFormatV3RejectedByV2Reader(t *testing.T) {
	_, err, _ := formatExchange(t, 3, 2, "dictionary")
	if err == nil {
		t.Fatal("v2-capped reader accepted a v3 writer")
	}
	if !strings.Contains(err.Error(), "format v3") || !strings.Contains(err.Error(), "up to v2") {
		t.Fatalf("rejection should name both formats, got: %v", err)
	}
}
