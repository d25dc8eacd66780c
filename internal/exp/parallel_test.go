package exp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/nas"
	"repro/internal/trace"
)

// The parallel engine's contract is byte-identical output: every grid
// point is an independent deterministic simulation, so sweeping with 8
// workers must reproduce the serial sweep exactly — same structs, same
// rendered tables — not merely statistically similar results.

func TestStreamSweepParallelIdenticalToSerial(t *testing.T) {
	p := Tera100()
	writers := []int{4, 8, 16}
	ratios := []int{1, 2, 8}
	serial, err := StreamSweepJ(p, writers, ratios, 4<<20, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := StreamSweepJ(p, writers, ratios, 4<<20, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	var a, b bytes.Buffer
	WriteStreamTable(&a, serial)
	WriteStreamTable(&b, parallel)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rendered tables differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestFaultSweepParallelIdenticalToSerial(t *testing.T) {
	p := Tera100()
	w, err := nas.SP(nas.ClassC, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.25, 0.5, 0.75}
	serial, err := FaultSweepJ(p, w, 8, fracs, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FaultSweepJ(p, w, 8, fracs, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel fault sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestRatioSweepParallelIdenticalToSerial(t *testing.T) {
	p := Tera100()
	w, err := nas.CG(nas.ClassC, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratios := []int{1, 2, 4, 8, 64}
	serial, err := RatioSweepJ(p, w, ratios, 1, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RatioSweepJ(p, w, ratios, 8, trace.PackV1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel ratio sweep diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
