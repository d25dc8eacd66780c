package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
)

var (
	update = flag.Bool("update", false, "TestResultsCurrent rewrites the results/ files it checks")
	long   = flag.Bool("long", false, "TestResultsCurrent also runs the sweep figures 14, 15 and 16 (about 90 s on 2 cores)")
)

// sweepFigures are the figure table entries TestResultsCurrent runs only
// with -long.
var sweepFigures = map[string]bool{"14": true, "15": true, "16": true}

// jFigure is the profile entry TestResultsCurrent also runs on 1 and on 2
// blackboard workers, which must not change its bytes.
const jFigure = "17euler"

// TestResultsCurrent runs every entry of the figure table and requires
// each file it returns byte-identical to the committed one, and every file
// committed in a directory the entry owns to be one it returns. With
// -update it rewrites the files instead and removes the stale ones:
//
//	go test -run TestResultsCurrent -long -update .
func TestResultsCurrent(t *testing.T) {
	for _, fig := range exp.Figures() {
		t.Run(fig.Name, func(t *testing.T) {
			if sweepFigures[fig.Name] && !*long {
				t.Skip("sweep figure; run with -long")
			}
			files, err := fig.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			checkFiles(t, fig, files)
			if fig.Name != jFigure {
				return
			}
			for _, j := range []int{1, 2} {
				again, err := fig.Run(j)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, files) {
					t.Errorf("figure %s at j=%d differs from j=0", fig.Name, j)
				}
			}
		})
	}
}

func checkFiles(t *testing.T, fig exp.Figure, files map[string][]byte) {
	stale := map[string]bool{}
	for _, p := range fig.Paths {
		if !strings.HasSuffix(p, "/") {
			if files[p] == nil {
				t.Errorf("figure %s does not return its path %s", fig.Name, p)
			}
			continue
		}
		committed, err := filepath.Glob(p + "*")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range committed {
			stale[c] = true
		}
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if !owns(fig, p) {
			t.Errorf("figure %s returns %s, which is under none of its paths %v", fig.Name, p, fig.Paths)
			continue
		}
		delete(stale, p)
		got := files[p]
		old, err := os.ReadFile(p)
		switch {
		case *update && !bytes.Equal(old, got):
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, got, 0o644); err != nil {
				t.Fatal(err)
			}
		case err != nil:
			t.Errorf("%v (rerun with -update)", err)
		case !bytes.Equal(old, got):
			t.Errorf("%s is not what figure %s produces: %s (rerun with -update)", p, fig.Name, firstDiff(old, got))
		}
	}
	for p := range stale {
		if !*update {
			t.Errorf("%s is committed but figure %s does not produce it (rerun with -update)", p, fig.Name)
		} else if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
}

// owns reports whether path is one of fig's paths or under one of its
// directories.
func owns(fig exp.Figure, path string) bool {
	for _, p := range fig.Paths {
		if path == p || strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) && !strings.Contains(path[len(p):], "/") {
			return true
		}
	}
	return false
}

// firstDiff names the first line where committed and produced bytes part.
func firstDiff(committed, produced []byte) string {
	a, b := strings.Split(string(committed), "\n"), strings.Split(string(produced), "\n")
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: committed %q, produced %q", i+1, x, y)
		}
	}
	return "the lines match, the bytes do not"
}
