// Package durable holds the two on-disk mechanisms every crash-surviving
// file in the tree shares: the length+CRC record frame that lets a reader
// tell a tail torn by a dying process from corruption, and the atomic file
// replace. WAL log segments (store/wal) and flight-recorder dumps (obs) are
// sequences of these frames; WAL snapshots and flight dumps are written
// through WriteFile. It imports only the standard library, so any package
// may use it.
//
// Frame: [4B LE body length][4B LE CRC-32C of body][body]. Castagnoli, not
// IEEE: frames are sealed on the receive hot path, and the Castagnoli
// polynomial has a dedicated instruction on amd64/arm64.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
)

// FrameHeaderSize is the length+CRC prefix of every frame.
const FrameHeaderSize = 8

// Frame-parse verdicts. ErrTorn means the bytes ended inside a frame, the
// expected shape of an append cut short by a crash; ErrCorrupt means they
// are structurally wrong (impossible length, CRC mismatch).
var (
	ErrTorn    = errors.New("durable: torn frame")
	ErrCorrupt = errors.New("durable: corrupt frame")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame with an n-byte body to dst and returns the
// extended slice: it reserves header and body, has fill write the (zeroed)
// body in place, then seals the frame with the body's checksum. It
// allocates only when dst lacks capacity.
func AppendFrame(dst []byte, n int, fill func(body []byte)) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize+n)...)
	b := dst[start:]
	body := b[FrameHeaderSize:]
	fill(body)
	binary.LittleEndian.PutUint32(b, uint32(n))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(body, castagnoli))
	return dst
}

// NextFrame parses one frame from the front of b, returning its body (which
// aliases b) and the total frame size consumed. A length prefix above
// maxBody is rejected before anything is sliced: a length read out of
// garbage must not look like a 4 GiB record.
func NextFrame(b []byte, maxBody int) (body []byte, size int, err error) {
	if len(b) < FrameHeaderSize {
		return nil, 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || n > maxBody {
		return nil, 0, ErrCorrupt
	}
	if len(b) < FrameHeaderSize+n {
		return nil, 0, ErrTorn
	}
	body = b[FrameHeaderSize : FrameHeaderSize+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, ErrCorrupt
	}
	return body, FrameHeaderSize + n, nil
}

// WriteFile atomically replaces path with data, creating parent
// directories as needed: temp file beside it, write, fsync, rename, fsync
// the directory. Whatever was at path stays intact until the new content is
// durably complete, so it is safe on a crash path.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // the first error wins
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck // read-only handle
	return d.Sync()
}
