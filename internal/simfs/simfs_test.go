package simfs

import (
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// testConfig's aggregate path (1 GB/s) is narrower than one file's stripe.
func testConfig() Config {
	return Config{AggregateBandwidth: 1e9}
}

func TestCreateWriteClose(t *testing.T) {
	// An aggregate path wider than the stripe: the stripe caps the write.
	fs := New(Config{AggregateBandwidth: 4 * stripeBandwidth})
	fd, done := fs.Create(0)
	if done <= 0 {
		t.Fatal("create should cost metadata time")
	}
	const size = 1_000_000
	wdone, err := fs.Write(done, fd, size)
	if err != nil {
		t.Fatal(err)
	}
	if wdone-done < des.DurationToTime(des.SecondsToDuration(size/stripeBandwidth)) {
		t.Fatalf("write too fast: %v", (wdone - done).Duration())
	}
	if _, err := fs.Close(wdone, fd); err != nil {
		t.Fatal(err)
	}
	if size := fs.files[fd].size; size != 1_000_000 {
		t.Fatalf("size = %d", size)
	}
}

func TestWriteToClosedFileFails(t *testing.T) {
	fs := New(testConfig())
	fd, done := fs.Create(0)
	done, _ = fs.Close(done, fd)
	if _, err := fs.Write(done, fd, 10); err == nil {
		t.Fatal("expected error writing to closed file")
	}
	if _, err := fs.Write(done, 999, 10); err == nil {
		t.Fatal("expected error writing to unknown fd")
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	fdA, tA := fs.Create(0)
	fdB, tB := fs.Create(0)
	start := tB
	if tA > start {
		start = tA
	}
	// Two 1 MB writes from different files at the same instant share the
	// aggregate path: the later completion is no earlier than both writes'
	// bytes over the aggregate bandwidth after start.
	const size = 1_000_000
	d1, _ := fs.Write(start, fdA, size)
	d2, _ := fs.Write(start, fdB, size)
	last := d1
	if d2 > last {
		last = d2
	}
	if last-start < des.DurationToTime(des.SecondsToDuration(2*size/cfg.AggregateBandwidth)) {
		t.Fatalf("aggregate path not shared: last-start = %v", (last - start).Duration())
	}
}

func TestMetadataContention(t *testing.T) {
	fs := New(testConfig())
	// 100 creates at t=0 serialize on the metadata server: the last
	// completes no earlier than 100 services at metaOpsPerSecond.
	const creates = 100
	var last des.Time
	for i := 0; i < creates; i++ {
		_, done := fs.Create(0)
		if done > last {
			last = done
		}
	}
	if last < des.DurationToTime(des.SecondsToDuration(creates/metaOpsPerSecond)) {
		t.Fatalf("metadata contention not modeled: last = %v", last.Duration())
	}
	if len(fs.files) != 100 {
		t.Fatalf("files = %d", len(fs.files))
	}
}

// TestProrate: DefaultConfig's machine-wide bandwidth, prorated evenly
// over the cores (the paper's fat-tree assumption), gives the paper's
// ~9.1 GB/s for 2560 of Tera 100's 140 000 cores.
func TestProrate(t *testing.T) {
	share := DefaultConfig().AggregateBandwidth * 2560 / 140000
	if share < 9.0e9 || share > 9.2e9 {
		t.Fatalf("prorated bandwidth %g outside the paper's 9.1 GB/s ballpark", share)
	}
}

func TestTotals(t *testing.T) {
	fs := New(testConfig())
	fdA, tA := fs.Create(0)
	fdB, _ := fs.Create(0)
	fs.Write(tA, fdA, 100)
	fs.Write(tA, fdB, 200)
	if a, b := fs.files[fdA].size, fs.files[fdB].size; a != 100 || b != 200 || len(fs.files) != 2 {
		t.Fatalf("sizes = %d, %d of %d files", a, b, len(fs.files))
	}
}

// Property: completions never run backwards relative to their request time.
func TestCompletionMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		fs := New(testConfig())
		fd, now := fs.Create(0)
		for _, sz := range sizes {
			done, err := fs.Write(now, fd, int64(sz))
			if err != nil || done < now {
				return false
			}
			now = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
