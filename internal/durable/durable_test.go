package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func frameOf(body string) []byte {
	return AppendFrame(nil, len(body), func(p []byte) { copy(p, body) })
}

// TestFrameRoundTrip covers the frame directly: a sequence of frames
// parses back body by body, every strict prefix of a frame is torn (never
// corrupt), and a flipped bit or an oversized length is corrupt (never
// torn).
func TestFrameRoundTrip(t *testing.T) {
	bodies := []string{"first", "", "a somewhat longer third body"}
	var buf []byte
	for _, body := range bodies {
		buf = AppendFrame(buf, len(body), func(p []byte) { copy(p, body) })
	}
	rest := buf
	for i, want := range bodies {
		body, n, err := NextFrame(rest, 64)
		if err != nil || string(body) != want || n != FrameHeaderSize+len(want) {
			t.Fatalf("frame %d = %q, %d, %v; want %q", i, body, n, err, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}

	one := frameOf("torn or corrupt")
	for cut := 0; cut < len(one); cut++ {
		if body, n, err := NextFrame(one[:cut], 64); err != ErrTorn || body != nil || n != 0 {
			t.Fatalf("prefix of %d bytes = %q, %d, %v; want ErrTorn", cut, body, n, err)
		}
	}
	for _, at := range []int{FrameHeaderSize - 1, FrameHeaderSize + 2} { // CRC byte, body byte
		bad := append([]byte(nil), one...)
		bad[at] ^= 0x10
		if _, _, err := NextFrame(bad, 64); err != ErrCorrupt {
			t.Errorf("bit flip at %d: %v, want ErrCorrupt", at, err)
		}
	}
	if _, _, err := NextFrame(one, len("torn or corrupt")-1); err != ErrCorrupt {
		t.Errorf("body above maxBody: %v, want ErrCorrupt", err)
	}
}

// FuzzNextFrame fuzzes the one parser every crash-surviving file goes
// through, on bytes as they would come off a disk: the committed seeds are
// the WAL record corpus and a flight dump. Any input must yield frames or
// a verdict, never a panic or an over-read; a parsed frame must re-seal to
// the exact bytes it came from; and cutting a parsed frame short must read
// as torn, which is what lets recovery tell a crash from corruption.
func FuzzNextFrame(f *testing.F) {
	f.Add(frameOf("seed"))
	f.Add(append(frameOf("two"), frameOf("frames")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBody = 1 << 12
		for rest := data; len(rest) > 0; {
			body, n, err := NextFrame(rest, maxBody)
			if err != nil {
				if err != ErrTorn && err != ErrCorrupt {
					t.Fatalf("unknown verdict %v", err)
				}
				if body != nil || n != 0 {
					t.Fatalf("verdict %v with body %q, size %d", err, body, n)
				}
				return
			}
			if n != FrameHeaderSize+len(body) || n > len(rest) || len(body) > maxBody {
				t.Fatalf("frame of %d bytes, body %d, from %d available", n, len(body), len(rest))
			}
			resealed := AppendFrame(nil, len(body), func(p []byte) { copy(p, body) })
			if !bytes.Equal(resealed, rest[:n]) {
				t.Fatalf("re-seal mismatch:\n got %x\nwant %x", resealed, rest[:n])
			}
			if _, _, err := NextFrame(rest[:n-1], maxBody); err != ErrTorn {
				t.Fatalf("frame cut one byte short: %v, want ErrTorn", err)
			}
			rest = rest[n:]
		}
	})
}

// TestWriteFile: the replace creates missing parents, leaves only the
// target behind, and overwrites an existing file with the new content.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "state.bin")
	for _, content := range []string{"first version", "second"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q, %v; want %q", got, err, content)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.bin" {
		t.Errorf("directory not clean after the replace: %v", entries)
	}
}

// TestWriteFileFailureKeepsOldContent: when the replace cannot complete,
// the previous content is untouched and no temp file is left.
func TestWriteFileFailureKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the temp name makes the open fail.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("replace succeeded with the temp name blocked")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Errorf("after a failed replace: %q, %v; want the old content", got, err)
	}
}
