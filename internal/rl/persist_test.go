package rl

import (
	"bytes"
	"strings"
	"testing"

	"hipster/internal/platform"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	src, _ := NewTable(4, actions())
	src.Update(0, 1, 1, 3.5, 0.6, 0.9)
	src.Update(1, 2, 2, -1.0, 0.6, 0.9)
	src.Update(3, 0, 0, 7.0, 1.0, 0.0)

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := NewTable(4, actions())
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for a := 0; a < len(actions()); a++ {
			if dst.Value(s, a) != src.Value(s, a) {
				t.Fatalf("value (%d,%d) mismatch: %v vs %v", s, a, dst.Value(s, a), src.Value(s, a))
			}
			if dst.Visits(s, a) != src.Visits(s, a) {
				t.Fatalf("visits (%d,%d) mismatch", s, a)
			}
		}
	}
}

func TestTableLoadRejectsMismatchedShape(t *testing.T) {
	src, _ := NewTable(4, actions())
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong state count.
	wrongStates, _ := NewTable(5, actions())
	if err := wrongStates.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("state-count mismatch accepted")
	}

	// Wrong action space.
	other := []platform.Config{
		{NSmall: 2},
		{NSmall: 3},
		{NBig: 1, BigFreq: 900},
	}
	wrongActions, _ := NewTable(4, other)
	if err := wrongActions.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("action-space mismatch accepted")
	}
}

func TestTableLoadRejectsGarbage(t *testing.T) {
	dst, _ := NewTable(2, actions())
	if err := dst.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := dst.Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestDeltaSaveLoadRoundTrip(t *testing.T) {
	tab, _ := NewTable(3, actions())
	cp := tab.Checkpoint()
	tab.Update(0, 2, 1, 5, 0.6, 0.9)
	tab.Update(2, 1, 2, -2, 0.6, 0.9)
	tab.Update(2, 1, 2, -3, 0.6, 0.9)
	cells, err := tab.DeltaSince(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := Delta{Cells: cells}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDelta(bytes.NewReader(buf.Bytes()), tab.NumStates(), tab.NumActions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(src.Cells) || got.TotalVisits() != src.TotalVisits() {
		t.Fatalf("round-trip delta = %+v, want %+v", got, src)
	}
	for i, c := range got.Cells {
		if c != src.Cells[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, c, src.Cells[i])
		}
	}
}

func TestLoadDeltaRejectsBadInput(t *testing.T) {
	if _, err := LoadDelta(strings.NewReader("not json"), 2, 2); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadDelta(strings.NewReader(`{"version": 99}`), 2, 2); err == nil {
		t.Fatal("future version accepted")
	}
	// A delta trained for a bigger table must not load into a smaller one.
	out := Delta{Cells: []DeltaCell{{State: 5, Action: 0, Value: 1, Visits: 1}}}
	var buf bytes.Buffer
	if err := out.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDelta(bytes.NewReader(buf.Bytes()), 2, 2); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	bad := Delta{Cells: []DeltaCell{{State: 0, Action: 0, Value: 1, Visits: 0}}}
	buf.Reset()
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDelta(bytes.NewReader(buf.Bytes()), 2, 2); err == nil {
		t.Fatal("zero-visit cell accepted")
	}
}
