// Package trace serializes tango workloads to a compact binary format, so
// reference traces can be generated once (cmd/tracegen) and replayed into
// any machine configuration — the paper's other Tango operating mode
// ("Tango can be used to generate multiprocessor reference traces").
//
// Format (little-endian):
//
//	magic   "DCTR"            4 bytes
//	version uint16            currently 1
//	name    uvarint length + bytes
//	shared  uvarint           shared bytes touched
//	procs   uvarint
//	per processor:
//	  count uvarint
//	  count records: op byte, addr delta as signed varint
//
// Addresses are delta-encoded per processor; sequential access patterns
// compress to one or two bytes per reference.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dircoh/internal/tango"
)

var magic = [4]byte{'D', 'C', 'T', 'R'}

// Version is the current format version.
const Version = 1

// ErrFormat is returned when the input is not a valid trace, or when a
// workload cannot be written as one.
var ErrFormat = errors.New("trace: invalid format")

// Write serializes w's streams to out. A negative SharedBytes has no
// encoding and is refused.
func Write(out io.Writer, wl *tango.Workload) error {
	if wl.SharedBytes < 0 {
		return fmt.Errorf("%w: negative shared bytes %d", ErrFormat, wl.SharedBytes)
	}
	bw := bufio.NewWriter(out)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	if err := binary.Write(bw, binary.LittleEndian, uint16(Version)); err != nil {
		return err
	}
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(len(wl.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(wl.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(wl.SharedBytes)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(wl.Streams))); err != nil {
		return err
	}
	for _, s := range wl.Streams {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		prev := int64(0)
		for _, r := range s {
			if err := bw.WriteByte(byte(r.Op)); err != nil {
				return err
			}
			if err := putVarint(r.Addr - prev); err != nil {
				return err
			}
			prev = r.Addr
		}
	}
	return bw.Flush()
}

// Read parses a trace produced by Write.
func Read(in io.Reader) (*tango.Workload, error) {
	br := bufio.NewReader(in)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, m[:])
	}
	var ver uint16
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	const maxName = 1 << 16
	if nameLen > maxName {
		return nil, fmt.Errorf("%w: name too long (%d)", ErrFormat, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	shared, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if shared > math.MaxInt64 {
		return nil, fmt.Errorf("%w: shared bytes %d overflow int64", ErrFormat, shared)
	}
	procs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	const maxProcs = 1 << 20
	if procs > maxProcs {
		return nil, fmt.Errorf("%w: implausible processor count %d", ErrFormat, procs)
	}
	wl := &tango.Workload{Name: string(name), SharedBytes: int64(shared)}
	for p := uint64(0); p < procs; p++ {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		// Cap the initial allocation: a corrupt count must not balloon
		// memory before the per-record reads hit EOF.
		capHint := count
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		refs := make([]tango.Ref, 0, capHint)
		prev := int64(0)
		for i := uint64(0); i < count; i++ {
			op, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			if tango.Op(op) > tango.Barrier {
				return nil, fmt.Errorf("%w: unknown op %d", ErrFormat, op)
			}
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			prev += delta
			if prev < 0 {
				return nil, fmt.Errorf("%w: negative address", ErrFormat)
			}
			refs = append(refs, tango.Ref{Op: tango.Op(op), Addr: prev})
		}
		wl.Streams = append(wl.Streams, refs)
	}
	// Trailing garbage means the file was not produced by Write.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data", ErrFormat)
	}
	return wl, nil
}
