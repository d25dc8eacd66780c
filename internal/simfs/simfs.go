// Package simfs models a shared parallel filesystem (Lustre-class) in
// virtual time.
//
// The model captures the two properties the paper's argument rests on:
//
//  1. aggregate bandwidth is a machine-wide shared resource — the paper
//     prorates Tera 100's 500 GB/s over the allocated cores, which is
//     exactly what Config.AggregateBandwidth expresses for a job-sized
//     simulation;
//  2. metadata operations (create/open/close) are served by a metadata
//     server with limited throughput, so many simultaneous file creations
//     contend — this is why SIONlib-style file aggregation (many ranks per
//     physical file) helps trace-based tools.
//
// Like simnet, the model is non-blocking: operations return completion
// times; callers (the instrumentation sinks) sleep until then.
package simfs

import (
	"fmt"
	"time"

	"repro/internal/des"
)

// Config describes the filesystem.
type Config struct {
	// AggregateBandwidth is the total data bandwidth available to the job,
	// in bytes per second (shared by all writers and readers).
	AggregateBandwidth float64
}

const (
	// stripeBandwidth caps the bandwidth a single file (stream) can
	// achieve, in bytes per second.
	stripeBandwidth float64 = 2.5e9
	// metaOpLatency is the base cost of one metadata operation.
	metaOpLatency = 200 * time.Microsecond
	// metaOpsPerSecond is the metadata server's service rate; concurrent
	// metadata operations queue behind each other at this rate.
	metaOpsPerSecond float64 = 20000
)

// DefaultConfig models the paper's scaling rule on Tera 100: 500 GB/s for
// 140 000 cores. Callers scale AggregateBandwidth to the allocated core
// count, which is what the paper itself does when it derives the 9.1 GB/s
// figure for 2560 cores.
func DefaultConfig() Config {
	return Config{AggregateBandwidth: 500e9}
}

// FS is the filesystem model.
type FS struct {
	cfg  Config
	data des.Queue // shared data path
	meta des.Queue // metadata server
	next int

	files map[int]*file
}

type file struct {
	size   int64
	stripe des.Queue // per-file stream cap
	open   bool
}

// New creates a filesystem with the given configuration.
func New(cfg Config) *FS {
	return &FS{cfg: cfg, files: make(map[int]*file)}
}

func (f *FS) metaOp(now des.Time) des.Time {
	svc := des.SecondsToDuration(1 / metaOpsPerSecond)
	return f.meta.Next(now, svc) + des.DurationToTime(metaOpLatency)
}

// Create creates a file and returns its descriptor and the virtual time the
// create completes.
func (f *FS) Create(now des.Time) (fd int, done des.Time) {
	fd = f.next
	f.next++
	f.files[fd] = &file{open: true}
	return fd, f.metaOp(now)
}

// Close closes a file (metadata cost only).
func (f *FS) Close(now des.Time, fd int) (des.Time, error) {
	fl, ok := f.files[fd]
	if !ok {
		return now, fmt.Errorf("simfs: close of unknown fd %d", fd)
	}
	fl.open = false
	return f.metaOp(now), nil
}

func (f *FS) dataXfer(now des.Time, fl *file, size int64) des.Time {
	var agg time.Duration
	if f.cfg.AggregateBandwidth > 0 {
		agg = des.SecondsToDuration(float64(size) / f.cfg.AggregateBandwidth)
	}
	done := f.data.Next(now, agg)
	stripe := des.SecondsToDuration(float64(size) / stripeBandwidth)
	if done2 := fl.stripe.Next(now, stripe); done2 > done {
		done = done2
	}
	return done
}

// Write appends size bytes to fd and returns the completion time.
func (f *FS) Write(now des.Time, fd int, size int64) (des.Time, error) {
	fl, ok := f.files[fd]
	if !ok || !fl.open {
		return now, fmt.Errorf("simfs: write to closed or unknown fd %d", fd)
	}
	fl.size += size
	return f.dataXfer(now, fl, size), nil
}
