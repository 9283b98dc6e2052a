package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"ppcsim/internal/layout"
)

// The columnar binary trace format. Design goals: compact enough that a
// 10^9-reference trace fits on a laptop disk (delta-encoded varint
// columns), streamable front to back with bounded memory (fixed-size
// reference frames), and seekable (a footer index of frame offsets for
// mmap/io.ReaderAt consumers). See docs/trace-format.md for the byte-level
// specification.
//
// Layout:
//
//	magic "ppccolv1"
//	header:  uvarint len(name) + name bytes
//	         1 byte placeByFile (0/1)
//	         uvarint cacheBlocks
//	         uvarint file count, then per file: uvarint blocks
//	         uvarint reference count
//	frames:  each holds up to frameRefs references:
//	         uvarint count, uvarint payload length, payload:
//	           1 flags byte (bit 0: write bitmap present)
//	           count x signed varint block-ID delta (previous starts at 0)
//	           count x uvarint XOR of float64 compute bits (previous starts at 0)
//	           [flags&1] ceil(count/8) bitmap bytes, LSB first
//	footer:  uvarint frame count
//	         frame offsets: first absolute uvarint, then uvarint deltas
//	         uvarint reference count (echo)
//	trailer: 8-byte little-endian footer offset + magic "ppccend1"
const (
	columnarMagic    = "ppccolv1"
	columnarEndMagic = "ppccend1"

	// frameRefs is the fixed frame capacity. 8192 references decode into
	// ~200 KiB resident per open source, and frames stay small enough
	// that a seek-and-scan lands within one readahead.
	frameRefs = 8192

	// Decoder hardening bounds: nothing a well-formed file exceeds, so a
	// hostile header cannot induce huge allocations.
	maxNameLen      = 1 << 16
	maxFiles        = 1 << 20
	maxBlockSpace   = 1 << 31
	maxFramePayload = 1 + frameRefs*(binary.MaxVarintLen64*2) + frameRefs/8 + 1
)

// ColumnarBase64Prefix is the first eight characters of any
// base64(std)-encoded columnar trace: the encoding of the magic's first
// six bytes "ppccol". JSON boundaries that carry traces as strings sniff
// this prefix to tell a base64 columnar body from ppctrace text (no text
// trace starts with it — text headers start with "ppctrace ").
const ColumnarBase64Prefix = "cHBjY29s"

// IsColumnar reports whether data begins with the columnar magic.
func IsColumnar(data []byte) bool {
	return len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) == columnarMagic
}

// countingWriter tracks bytes written through a buffered writer and
// latches the first error so encoding code can skip per-call checks.
type countingWriter struct {
	bw  *bufio.Writer
	n   int64
	err error
	tmp [binary.MaxVarintLen64]byte
}

func (w *countingWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.n += int64(n)
	w.err = err
}

func (w *countingWriter) byte(c byte) {
	if w.err != nil {
		return
	}
	w.err = w.bw.WriteByte(c)
	if w.err == nil {
		w.n++
	}
}

func (w *countingWriter) uvarint(v uint64) {
	w.bytes(w.tmp[:binary.PutUvarint(w.tmp[:], v)])
}

// WriteColumnar encodes a source's trace in the columnar binary format,
// returning the number of bytes written. The source is reset first and
// fully drained; per-reference invariants (block range, finite compute)
// are enforced during encoding so no invalid trace can be serialized.
func WriteColumnar(w io.Writer, src Source) (int64, error) {
	if err := src.Reset(); err != nil {
		return 0, err
	}
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	nBlocks := m.NumBlocks()
	cw := &countingWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	cw.bytes([]byte(columnarMagic))
	cw.uvarint(uint64(len(m.Name)))
	cw.bytes([]byte(m.Name))
	pb := byte(0)
	if m.PlaceByFile {
		pb = 1
	}
	cw.byte(pb)
	cw.uvarint(uint64(m.CacheBlocks))
	cw.uvarint(uint64(len(m.Files)))
	for _, f := range m.Files {
		cw.uvarint(uint64(f.Blocks))
	}
	cw.uvarint(uint64(m.Refs))

	var offsets []int64
	frame := make([]Ref, 0, frameRefs)
	var payload []byte
	buf := make([]Ref, 4096)
	var total int64
	flush := func() {
		if len(frame) == 0 {
			return
		}
		offsets = append(offsets, cw.n)
		payload = encodeFrame(payload[:0], frame)
		cw.uvarint(uint64(len(frame)))
		cw.uvarint(uint64(len(payload)))
		cw.bytes(payload)
		frame = frame[:0]
	}
	for {
		n, err := src.ReadRefs(buf)
		for _, r := range buf[:n] {
			if int(r.Block) < 0 || int(r.Block) >= nBlocks {
				return cw.n, fmt.Errorf("trace %q: ref %d block %d out of range [0,%d)", m.Name, total, r.Block, nBlocks)
			}
			if cerr := validCompute(r.ComputeMs); cerr != nil {
				return cw.n, fmt.Errorf("trace %q: ref %d: %v", m.Name, total, cerr)
			}
			total++
			frame = append(frame, r)
			if len(frame) == frameRefs {
				flush()
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return cw.n, fmt.Errorf("trace %q: source read: %w", m.Name, err)
		}
		if n == 0 {
			return cw.n, fmt.Errorf("trace %q: source returned no references and no error", m.Name)
		}
	}
	if total != m.Refs {
		return cw.n, fmt.Errorf("trace %q: source yielded %d references, metadata promises %d", m.Name, total, m.Refs)
	}
	flush()

	footerOff := cw.n
	cw.uvarint(uint64(len(offsets)))
	prev := int64(0)
	for _, off := range offsets {
		cw.uvarint(uint64(off - prev))
		prev = off
	}
	cw.uvarint(uint64(m.Refs))
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(footerOff))
	cw.bytes(trailer[:])
	cw.bytes([]byte(columnarEndMagic))
	if cw.err == nil {
		cw.err = cw.bw.Flush()
	}
	return cw.n, cw.err
}

// encodeFrame appends one frame's payload to dst: flags byte, block-ID
// delta column, compute-bits XOR column, optional write bitmap.
func encodeFrame(dst []byte, refs []Ref) []byte {
	var tmp [binary.MaxVarintLen64]byte
	hasWrites := false
	for _, r := range refs {
		if r.Write {
			hasWrites = true
			break
		}
	}
	flags := byte(0)
	if hasWrites {
		flags = 1
	}
	dst = append(dst, flags)
	prevB := int64(0)
	for _, r := range refs {
		b := int64(r.Block)
		dst = append(dst, tmp[:binary.PutVarint(tmp[:], b-prevB)]...)
		prevB = b
	}
	prevBits := uint64(0)
	for _, r := range refs {
		bits := math.Float64bits(r.ComputeMs)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], bits^prevBits)]...)
		prevBits = bits
	}
	if hasWrites {
		nb := (len(refs) + 7) / 8
		start := len(dst)
		dst = append(dst, make([]byte, nb)...)
		for i, r := range refs {
			if r.Write {
				dst[start+i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst
}

// readColumnarHeader parses the magic and header from br, returning the
// trace metadata.
func readColumnarHeader(br *bufio.Reader) (Meta, error) {
	var m Meta
	magic := make([]byte, len(columnarMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != columnarMagic {
		return m, fmt.Errorf("trace: not a columnar trace (bad magic)")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > maxNameLen {
		return m, fmt.Errorf("trace: bad columnar name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return m, fmt.Errorf("trace: truncated columnar name")
	}
	m.Name = string(name)
	pb, err := br.ReadByte()
	if err != nil || pb > 1 {
		return m, fmt.Errorf("trace: bad columnar placeByFile byte")
	}
	m.PlaceByFile = pb == 1
	cb, err := binary.ReadUvarint(br)
	if err != nil || cb > maxBlockSpace {
		return m, fmt.Errorf("trace: bad columnar cacheBlocks")
	}
	m.CacheBlocks = int(cb)
	nFiles, err := binary.ReadUvarint(br)
	if err != nil || nFiles == 0 || nFiles > maxFiles {
		return m, fmt.Errorf("trace: bad columnar file count %d", nFiles)
	}
	m.Files = make([]layout.File, nFiles)
	next := uint64(0)
	for i := range m.Files {
		fb, err := binary.ReadUvarint(br)
		if err != nil || fb == 0 || next+fb > maxBlockSpace {
			return m, fmt.Errorf("trace: bad columnar file %d size", i)
		}
		m.Files[i] = layout.File{First: layout.BlockID(next), Blocks: int(fb)}
		next += fb
	}
	refs, err := binary.ReadUvarint(br)
	if err != nil || refs == 0 || refs > math.MaxInt64 {
		return m, fmt.Errorf("trace: bad columnar reference count")
	}
	m.Refs = int64(refs)
	return m, nil
}

// decodeFrame reads one frame from br into out (reusing its backing
// array) and returns the decoded references plus the payload scratch
// buffer. remaining bounds the legal frame size; nBlocks bounds block IDs.
//
//ppcvet:hotpath
func decodeFrame(br *bufio.Reader, nBlocks int, remaining int64, payload []byte, out []Ref) ([]Ref, []byte, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return out, payload, fmt.Errorf("trace: truncated columnar frame header")
	}
	if count == 0 || count > frameRefs || int64(count) > remaining {
		return out, payload, fmt.Errorf("trace: columnar frame count %d out of range", count)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil || plen == 0 || plen > maxFramePayload {
		return out, payload, fmt.Errorf("trace: bad columnar frame payload length")
	}
	if uint64(cap(payload)) < plen {
		payload = make([]byte, plen)
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(br, payload); err != nil {
		return out, payload, fmt.Errorf("trace: truncated columnar frame payload")
	}
	flags := payload[0]
	if flags&^1 != 0 {
		return out, payload, fmt.Errorf("trace: unknown columnar frame flags %#x", flags)
	}
	rest := payload[1:]
	out = out[:0]
	prevB := int64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(rest)
		if n <= 0 {
			return out, payload, fmt.Errorf("trace: bad columnar block delta")
		}
		rest = rest[n:]
		prevB += d
		if prevB < 0 || prevB >= int64(nBlocks) {
			return out, payload, fmt.Errorf("trace: columnar block %d out of range [0,%d)", prevB, nBlocks)
		}
		out = append(out, Ref{Block: layout.BlockID(prevB)})
	}
	prevBits := uint64(0)
	for i := range out {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			return out, payload, fmt.Errorf("trace: bad columnar compute delta")
		}
		rest = rest[n:]
		prevBits ^= x
		c := math.Float64frombits(prevBits)
		if cerr := validCompute(c); cerr != nil {
			return out, payload, fmt.Errorf("trace: columnar ref: %v", cerr)
		}
		out[i].ComputeMs = c
	}
	if flags&1 != 0 {
		nb := (len(out) + 7) / 8
		if len(rest) < nb {
			return out, payload, fmt.Errorf("trace: truncated columnar write bitmap")
		}
		for i := range out {
			out[i].Write = rest[i/8]>>(i%8)&1 == 1
		}
		rest = rest[nb:]
	}
	if len(rest) != 0 {
		return out, payload, fmt.Errorf("trace: %d trailing bytes in columnar frame", len(rest))
	}
	return out, payload, nil
}

// countingReader counts consumed bytes so header parsing can locate the
// first frame under a bufio.Reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ColumnarSource streams references out of a columnar trace held by any
// io.ReadSeeker (a file, a bytes.Reader over an mmap'd region). At most
// one frame (~8K references) is resident at a time, so memory use is
// independent of trace length. It implements Source.
type ColumnarSource struct {
	rs        io.ReadSeeker
	cr        *countingReader
	br        *bufio.Reader
	meta      Meta
	nBlocks   int
	dataOff   int64
	remaining int64
	frame     []Ref
	fpos      int
	payload   []byte
}

// NewColumnarSource parses the header at the start of rs and returns a
// streaming source positioned at the first reference. It is the one
// columnar reader: Materialize it for a resident *Trace. A header that
// claims more references than the bytes after it can encode is rejected
// before anything is sized from the claim — every reference takes at
// least two payload bytes (a block delta and a compute varint).
func NewColumnarSource(rs io.ReadSeeker) (*ColumnarSource, error) {
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	cr := &countingReader{r: rs}
	br := bufio.NewReaderSize(cr, 1<<16)
	m, err := readColumnarHeader(br)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	dataOff := cr.n - int64(br.Buffered())
	if m.Refs > (size-dataOff)/2 {
		return nil, fmt.Errorf("trace %q: header claims %d references, but %d bytes follow it", m.Name, m.Refs, size-dataOff)
	}
	s := &ColumnarSource{
		rs:        rs,
		cr:        cr,
		br:        br,
		meta:      m,
		nBlocks:   m.NumBlocks(),
		dataOff:   dataOff,
		remaining: m.Refs,
		frame:     make([]Ref, 0, min(frameRefs, m.Refs)),
	}
	return s, nil
}

// Meta implements Source.
func (s *ColumnarSource) Meta() Meta { return s.meta }

// ReadRefs implements Source.
func (s *ColumnarSource) ReadRefs(p []Ref) (int, error) {
	if s.fpos == len(s.frame) {
		if s.remaining == 0 {
			return 0, io.EOF
		}
		var err error
		s.frame, s.payload, err = decodeFrame(s.br, s.nBlocks, s.remaining, s.payload, s.frame)
		if err != nil {
			return 0, err
		}
		s.fpos = 0
		s.remaining -= int64(len(s.frame))
	}
	n := copy(p, s.frame[s.fpos:])
	s.fpos += n
	if s.fpos == len(s.frame) && s.remaining == 0 {
		return n, io.EOF
	}
	return n, nil
}

// Reset implements Source: rewind to the first reference.
func (s *ColumnarSource) Reset() error {
	if _, err := s.rs.Seek(s.dataOff, io.SeekStart); err != nil {
		return err
	}
	s.cr.n = s.dataOff
	s.br.Reset(s.cr)
	s.remaining = s.meta.Refs
	s.frame = s.frame[:0]
	s.fpos = 0
	return nil
}

// FileSource is a ColumnarSource over an open file.
type FileSource struct {
	*ColumnarSource
	f *os.File
}

// OpenColumnarFile opens a columnar trace file as a streaming source.
func OpenColumnarFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewColumnarSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{ColumnarSource: src, f: f}, nil
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// ColumnarInfo summarizes a columnar trace file without decoding its
// references: the header metadata plus the footer's frame index.
type ColumnarInfo struct {
	Meta Meta
	// Frames is the number of reference frames.
	Frames int
	// FrameOffsets are the absolute file offsets of each frame.
	FrameOffsets []int64
	// DataBytes is the total file size.
	DataBytes int64
}

// InspectColumnar reads the header and footer of a columnar trace
// through an io.ReaderAt of the given size — the access pattern an mmap
// consumer uses: two point reads, no sequential scan.
func InspectColumnar(r io.ReaderAt, size int64) (*ColumnarInfo, error) {
	const trailerLen = 8 + len(columnarEndMagic)
	if size < int64(len(columnarMagic)+trailerLen) {
		return nil, fmt.Errorf("trace: columnar file too short (%d bytes)", size)
	}
	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-int64(trailerLen)); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != columnarEndMagic {
		return nil, fmt.Errorf("trace: bad columnar end magic")
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff <= 0 || footerOff >= size-int64(trailerLen) {
		return nil, fmt.Errorf("trace: columnar footer offset %d out of range", footerOff)
	}

	hr := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 1<<12)
	m, err := readColumnarHeader(hr)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	fr := bufio.NewReaderSize(io.NewSectionReader(r, footerOff, size-int64(trailerLen)-footerOff), 1<<12)
	nFrames, err := binary.ReadUvarint(fr)
	if err != nil || nFrames > uint64(size) {
		return nil, fmt.Errorf("trace: bad columnar footer frame count")
	}
	offsets := make([]int64, nFrames)
	prev := int64(0)
	for i := range offsets {
		d, err := binary.ReadUvarint(fr)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated columnar footer")
		}
		prev += int64(d)
		if prev <= 0 || prev >= footerOff {
			return nil, fmt.Errorf("trace: columnar frame offset %d out of range", prev)
		}
		offsets[i] = prev
	}
	refs, err := binary.ReadUvarint(fr)
	if err != nil || int64(refs) != m.Refs {
		return nil, fmt.Errorf("trace: columnar footer reference count disagrees with header")
	}
	return &ColumnarInfo{Meta: m, Frames: int(nFrames), FrameOffsets: offsets, DataBytes: size}, nil
}
