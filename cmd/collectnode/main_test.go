package main

import (
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

func TestRunRejectsBadMode(t *testing.T) {
	if err := run([]string{"-mode", "nonsense", "-listen", "127.0.0.1:0", "-duration", "1ms"}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestRunPeerNeedsNeighbors(t *testing.T) {
	if err := run([]string{"-mode", "peer", "-listen", "127.0.0.1:0", "-duration", "1ms"}); err == nil {
		t.Error("peer without neighbors accepted")
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
