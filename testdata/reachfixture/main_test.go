package main

import "testing"

func TestWidget(t *testing.T) {
	w := NewWidget("w")
	t.Logf("logged %s", w.logged)
	if w.Name != "w" {
		t.Fatal(w.Name)
	}
}
