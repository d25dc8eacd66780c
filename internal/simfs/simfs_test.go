package simfs

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

func testConfig() Config {
	return Config{
		AggregateBandwidth: 1e9, // 1 GB/s
		StripeBandwidth:    0.5e9,
		MetaOpLatency:      100 * time.Microsecond,
		MetaOpsPerSecond:   10000, // 100 us service per metadata op
	}
}

func TestCreateWriteClose(t *testing.T) {
	fs := New(testConfig())
	fd, done := fs.Create(0, "trace.0")
	if done <= 0 {
		t.Fatal("create should cost metadata time")
	}
	wdone, err := fs.Write(done, fd, 1_000_000) // 1 MB at stripe 0.5 GB/s = 2 ms
	if err != nil {
		t.Fatal(err)
	}
	if wdone-done < des.DurationToTime(2*time.Millisecond) {
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
	fd, done := fs.Create(0, "f")
	done, _ = fs.Close(done, fd)
	if _, err := fs.Write(done, fd, 10); err == nil {
		t.Fatal("expected error writing to closed file")
	}
	if _, err := fs.Write(done, 999, 10); err == nil {
		t.Fatal("expected error writing to unknown fd")
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	fs := New(testConfig())
	fdA, tA := fs.Create(0, "a")
	fdB, tB := fs.Create(0, "b")
	start := tB
	if tA > start {
		start = tA
	}
	// Two 1 MB writes from different files at the same instant share the
	// 1 GB/s aggregate path: the later completion is >= 2 ms after start.
	d1, _ := fs.Write(start, fdA, 1_000_000)
	d2, _ := fs.Write(start, fdB, 1_000_000)
	last := d1
	if d2 > last {
		last = d2
	}
	if last-start < des.DurationToTime(2*time.Millisecond) {
		t.Fatalf("aggregate path not shared: last-start = %v", (last - start).Duration())
	}
}

func TestMetadataContention(t *testing.T) {
	fs := New(testConfig())
	// 100 creates at t=0 serialize on the metadata server at 10k ops/s:
	// the last completes no earlier than ~10 ms.
	var last des.Time
	for i := 0; i < 100; i++ {
		_, done := fs.Create(0, "f")
		if done > last {
			last = done
		}
	}
	if last < des.DurationToTime(10*time.Millisecond) {
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
	fdA, tA := fs.Create(0, "a")
	fdB, _ := fs.Create(0, "b")
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
		fd, now := fs.Create(0, "f")
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
