package main

import (
	"strings"
	"testing"

	"p2pcollect"
)

func TestParseBook(t *testing.T) {
	book, err := parseBook("1=127.0.0.1:7001,2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 2 || book[1] != "127.0.0.1:7001" || book[2] != "127.0.0.1:7002" {
		t.Errorf("book = %v", book)
	}
	if got, err := parseBook(""); err != nil || len(got) != 0 {
		t.Errorf("empty book: %v, %v", got, err)
	}
	if _, err := parseBook("nonsense"); err == nil {
		t.Error("malformed book accepted")
	}
	if _, err := parseBook("x=addr"); err == nil {
		t.Error("non-numeric id accepted")
	}
}

func TestParseIDs(t *testing.T) {
	ids, err := parseIDs("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []p2pcollect.NodeID{1, 2, 3}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if got, err := parseIDs(""); err != nil || got != nil {
		t.Errorf("empty ids: %v, %v", got, err)
	}
	if _, err := parseIDs("1,x"); err == nil {
		t.Error("bad id accepted")
	}
}

// unlistenable fails to listen without touching the network (the port is
// out of range), so a test that gets its flag error back proves the flags
// were checked before the listener opened.
const unlistenable = "127.0.0.1:99999"

func TestRunRejectsBadMode(t *testing.T) {
	err := run([]string{"-mode", "nonsense", "-listen", unlistenable, "-duration", "1ms"})
	if err == nil || !strings.Contains(err.Error(), "unknown -mode") {
		t.Errorf("bad mode: got %v, want the -mode error", err)
	}
}

func TestRunPeerNeedsNeighbors(t *testing.T) {
	err := run([]string{"-mode", "peer", "-listen", unlistenable, "-duration", "1ms"})
	if err == nil || !strings.Contains(err.Error(), "needs -neighbors") {
		t.Errorf("peer without neighbors: got %v, want the -neighbors error", err)
	}
}

func TestRunPeerBriefly(t *testing.T) {
	err := run([]string{
		"-mode", "peer", "-id", "1", "-listen", "127.0.0.1:0",
		"-neighbors", "2", "-duration", "100ms",
		"-lambda", "50", "-mu", "10", "-gamma", "1", "-s", "2",
	})
	if err != nil {
		t.Fatalf("brief peer run: %v", err)
	}
}

func TestRunServerBriefly(t *testing.T) {
	err := run([]string{
		"-mode", "server", "-id", "9", "-listen", "127.0.0.1:0",
		"-peers", "1,2", "-duration", "100ms", "-pullrate", "10",
	})
	if err != nil {
		t.Fatalf("brief server run: %v", err)
	}
}

func TestRunServerWithCSVOut(t *testing.T) {
	out := t.TempDir() + "/records.csv"
	err := run([]string{
		"-mode", "server", "-id", "9", "-listen", "127.0.0.1:0",
		"-peers", "1", "-duration", "100ms", "-pullrate", "5",
		"-out", out,
	})
	if err != nil {
		t.Fatalf("server with -out: %v", err)
	}
}
