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
