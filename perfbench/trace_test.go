package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two children overlapping each other: their union [10,40] covers 30.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		// A child nested entirely inside an earlier one covers nothing new.
		{ID: 4, Parent: 1, Name: "c", Start: 12, End: 18},
		// A child running past its parent counts only inside it: 10.
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		// A grandchild is inside its own parent, not the root's direct cover.
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},
		{ID: 7, Name: "leaf", Start: 5, End: 9},
	}
	want := map[int64]int64{1: 100 - 30 - 10, 2: 20, 3: 20 - 10, 4: 6, 5: 30, 6: 10, 7: 4}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerRecordsAndWritesSpans(t *testing.T) {
	off := newTracer(false)
	if id := off.Begin("x", 0, 0); id != 0 {
		t.Fatalf("disabled tracer returned span %d", id)
	}
	off.Count("c", 1)
	if len(off.Spans()) != 0 || off.Counter("c") != 0 {
		t.Fatalf("disabled tracer recorded something")
	}

	tr := newTracer(true)
	root := tr.Begin("root", 0, 42)
	tr.TimeIn("child", root, func() { time.Sleep(time.Millisecond) })
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].Op != 42 {
		t.Fatalf("spans = %+v", spans)
	}
	if st := newSpanStats(spans); st.selfs("root")[0] >= st.durs("root")[0] {
		t.Errorf("root self time %v not below its duration %v", st.selfs("root"), st.durs("root"))
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[1] != spans[1] {
		t.Errorf("span file holds %+v, want %+v", back, spans)
	}
}
