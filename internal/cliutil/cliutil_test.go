package cliutil

import (
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 64, 256,1024 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 64 || got[2] != 1024 {
		t.Fatalf("got %v", got)
	}
	for _, bad := range []string{"", "a,b", "1,,2", "1;2"} {
		if _, err := ParseInts(bad); err == nil {
			t.Fatalf("ParseInts(%q) accepted", bad)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"64", 64},
		{"4K", 4 << 10},
		{"64m", 64 << 20},
		{" 1G ", 1 << 30},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "G", "12Q", "x4K"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestParseApps(t *testing.T) {
	got, err := ParseApps("LU.D@1024, cg.c@128,EulerMHD@64")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("specs = %v", got)
	}
	if got[0] != (AppSpec{Kind: "LU", Class: 'D', Procs: 1024}) {
		t.Fatalf("spec0 = %+v", got[0])
	}
	if got[1].Class != 'C' || got[1].Procs != 128 {
		t.Fatalf("spec1 = %+v", got[1])
	}
	if got[2].Kind != "EulerMHD" || got[2].Class != 'C' {
		t.Fatalf("spec2 = %+v", got[2])
	}
	for _, bad := range []string{"", "LU.D", "LU.D@x", "LU.D@0", "LU.DD@4"} {
		if _, err := ParseApps(bad); err == nil {
			t.Fatalf("ParseApps(%q) accepted", bad)
		}
	}
}

func TestParseBenches(t *testing.T) {
	got, err := ParseBenches("BT.C, sp.d ,EulerMHD")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Kind != "BT" || got[1].Class != 'D' || got[2].Kind != "EulerMHD" {
		t.Fatalf("specs = %v", got)
	}
	for _, bad := range []string{"", "BT", "BT.CD"} {
		if _, err := ParseBenches(bad); err == nil {
			t.Fatalf("ParseBenches(%q) accepted", bad)
		}
	}
}

func TestResolvePackFormat(t *testing.T) {
	for format, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 3} {
		got, err := ResolvePackFormat(format)
		if err != nil {
			t.Fatalf("ResolvePackFormat(%d): %v", format, err)
		}
		if got != want {
			t.Fatalf("ResolvePackFormat(%d) = %d, want %d", format, got, want)
		}
	}
	// Out of range (100 is the audit marker, not a wire format).
	for _, bad := range []int{-1, 4, 100} {
		if _, err := ResolvePackFormat(bad); err == nil {
			t.Fatalf("ResolvePackFormat(%d) accepted", bad)
		}
	}
}

func TestExclusiveModes(t *testing.T) {
	if err := ExclusiveModes(); err != nil {
		t.Fatal(err)
	}
	if err := ExclusiveModes("-tree"); err != nil {
		t.Fatal(err)
	}
	if err := ExclusiveModes("-tree", "-overload"); err == nil {
		t.Fatal("two modes accepted")
	}
}
