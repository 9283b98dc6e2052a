// Package trace defines the file-access traces that drive the simulation
// and provides synthetic generators reproducing the nine application
// traces and one synthetic trace of the paper (Table 3): each generator
// matches the paper's read count, distinct-block count, and total compute
// time exactly, and follows the qualitative access pattern the paper
// describes for the application (section 3.1).
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"ppcsim/internal/layout"
)

// Ref is a single traced access: the block referenced and the process
// compute time (in milliseconds) that preceded the reference. The paper's
// traces are read-only; Write marks the optional write-behind extension's
// update accesses, which never stall the process. The fields are ordered
// widest first so a Ref packs into 16 bytes.
type Ref struct {
	ComputeMs float64
	Block     layout.BlockID
	Write     bool
}

// Trace is a sequence of read references of a single execution thread,
// with the measured inter-reference compute times, as collected on the
// paper's DECstation 5000/200.
type Trace struct {
	Name string
	Refs []Ref
	// Files describes the (file, offset) structure of the trace for data
	// placement: blocks are numbered contiguously file by file. Traces
	// that referenced logical file-system block numbers directly have a
	// single File covering all blocks and PlaceByFile false.
	Files []layout.File
	// PlaceByFile selects the per-file random-start placement of the
	// paper for (file, offset) traces; when false the block number is
	// used as the logical block number directly.
	PlaceByFile bool
	// CacheBlocks is the cache size the paper uses for this trace
	// (512 blocks for dinero and cscope1, 1280 otherwise).
	CacheBlocks int
}

// Stats summarizes a trace as in Table 3 of the paper. Writes (the
// write-behind extension) are counted separately; DistinctBlocks counts
// blocks that are read, as the paper does.
type Stats struct {
	Reads          int
	Writes         int
	DistinctBlocks int
	ComputeSec     float64
}

// Stats computes the Table 3 summary of the trace.
func (t *Trace) Stats() Stats {
	seen := make(map[layout.BlockID]struct{}, len(t.Refs))
	total := 0.0
	writes := 0
	for _, r := range t.Refs {
		if r.Write {
			writes++
		} else {
			seen[r.Block] = struct{}{}
		}
		total += r.ComputeMs
	}
	return Stats{
		Reads:          len(t.Refs) - writes,
		Writes:         writes,
		DistinctBlocks: len(seen),
		ComputeSec:     total / 1000.0,
	}
}

// NumBlocks returns the number of distinct block IDs the trace's files
// cover (the block ID space, which generators keep dense).
func (t *Trace) NumBlocks() int {
	n := 0
	for _, f := range t.Files {
		n += f.Blocks
	}
	return n
}

// Layout places the trace's blocks on a disk array of the given size,
// using the paper's placement policy for this trace kind.
func (t *Trace) Layout(disks int, seed int64) (*layout.Layout, error) {
	if t.PlaceByFile {
		return layout.NewFiles(t.Files, disks, seed)
	}
	return layout.New(t.NumBlocks(), disks)
}

// ScaleCompute returns a copy of the trace with every compute time
// multiplied by factor. The paper's double-speed-CPU experiments use
// factor 0.5.
func (t *Trace) ScaleCompute(factor float64) *Trace {
	out := &Trace{
		Name:        t.Name,
		Refs:        make([]Ref, len(t.Refs)),
		Files:       append([]layout.File(nil), t.Files...),
		PlaceByFile: t.PlaceByFile,
		CacheBlocks: t.CacheBlocks,
	}
	for i, r := range t.Refs {
		out.Refs[i] = Ref{Block: r.Block, ComputeMs: r.ComputeMs * factor, Write: r.Write}
	}
	return out
}

// Truncate returns a copy containing only the first n references (or the
// whole trace if n >= len; an empty copy if n < 0). Used by tests and
// benches to run scaled-down configurations.
func (t *Trace) Truncate(n int) *Trace {
	if n < 0 {
		n = 0
	}
	if n > len(t.Refs) {
		n = len(t.Refs)
	}
	out := &Trace{
		Name:        t.Name,
		Refs:        append([]Ref(nil), t.Refs[:n]...),
		Files:       append([]layout.File(nil), t.Files...),
		PlaceByFile: t.PlaceByFile,
		CacheBlocks: t.CacheBlocks,
	}
	return out
}

// Validate checks structural invariants: non-empty, block IDs within the
// file space, non-negative compute times, contiguous files.
func (t *Trace) Validate() error {
	if len(t.Refs) == 0 {
		return fmt.Errorf("trace %q: empty", t.Name)
	}
	n := 0
	for i, f := range t.Files {
		if f.Blocks <= 0 {
			return fmt.Errorf("trace %q: file %d has size %d", t.Name, i, f.Blocks)
		}
		if int(f.First) != n {
			return fmt.Errorf("trace %q: file %d not contiguous", t.Name, i)
		}
		n += f.Blocks
	}
	if n == 0 {
		return fmt.Errorf("trace %q: no files", t.Name)
	}
	total := 0.0
	for i, r := range t.Refs {
		if int(r.Block) < 0 || int(r.Block) >= n {
			return fmt.Errorf("trace %q: ref %d block %d out of range [0,%d)", t.Name, i, r.Block, n)
		}
		if err := validCompute(r.ComputeMs); err != nil {
			return fmt.Errorf("trace %q: ref %d: %v", t.Name, i, err)
		}
		total += r.ComputeMs
	}
	if math.IsInf(total, 0) {
		return fmt.Errorf("trace %q: total compute overflows to %g", t.Name, total)
	}
	return nil
}

// validCompute rejects the compute times no reference may carry: negative
// values, NaN, and infinities. strconv.ParseFloat happily parses "NaN"
// and "Inf" tokens and `x < 0` is false for NaN, so without this check a
// corrupt trace file flows NaN into every engine metric.
func validCompute(ms float64) error {
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		return fmt.Errorf("non-finite compute %g", ms)
	}
	if ms < 0 {
		return fmt.Errorf("negative compute %g", ms)
	}
	return nil
}

// Write serializes the trace in a line-oriented text format:
//
//	ppctrace <name> <placeByFile> <cacheBlocks>
//	file <blocks>         (one per file)
//	r <block> <computeMs> (one per read)
//	w <block> <computeMs> (one per write)
//
// Names containing whitespace, quotes, or non-printable characters are
// written Go-quoted, so every name round-trips through Read (an unescaped
// `my trace` would split into two header fields; a newline would inject
// arbitrary lines).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := t.Name
	if needsQuoting(name) {
		name = strconv.Quote(name)
	}
	fmt.Fprintf(bw, "ppctrace %s %t %d\n", name, t.PlaceByFile, t.CacheBlocks)
	for _, f := range t.Files {
		fmt.Fprintf(bw, "file %d\n", f.Blocks)
	}
	for _, r := range t.Refs {
		tag := "r"
		if r.Write {
			tag = "w"
		}
		fmt.Fprintf(bw, "%s %d %.6f\n", tag, r.Block, r.ComputeMs)
	}
	return bw.Flush()
}

// needsQuoting reports whether a trace name would not survive the text
// header unescaped: empty, leading quote (would be mistaken for a quoted
// name), whitespace (splits the field), or non-printable characters.
func needsQuoting(name string) bool {
	if name == "" || name[0] == '"' {
		return true
	}
	for _, r := range name {
		if unicode.IsSpace(r) || !strconv.IsPrint(r) {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, the table
// strings.Fields consults before it decodes a rune. Its upper half is
// false: a byte from utf8.RuneSelf up starts a multi-byte rune.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around each run of Unicode white space, the
// rule of strings.Fields: ASCII bytes by the asciiSpace table, every
// other byte by decoding its rune (an invalid byte decodes to
// utf8.RuneError, which is not space). It stores the first len(out)
// fields in out as subslices of line and returns how many fields the
// line has.
//
//ppcvet:hotpath
func splitFields(line []byte, out [][]byte) int {
	n, start := 0, -1
	// The end of the line, i == len(line), counts as one more space, so
	// a field that runs to the end is closed like any other.
	for i := 0; i <= len(line); {
		space, size := true, 1
		if i < len(line) {
			space = asciiSpace[line[i]]
			if line[i] >= utf8.RuneSelf {
				var r rune
				r, size = utf8.DecodeRune(line[i:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case space && start >= 0:
			if n < len(out) {
				out[n] = line[start:i]
			}
			n++
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	return n
}

// parseHeader splits the `ppctrace <name> <placeByFile> <cacheBlocks>`
// line, accepting both bare and Go-quoted names.
func parseHeader(line []byte) (name string, rest [2][]byte, err error) {
	const prefix = "ppctrace "
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return "", rest, fmt.Errorf("trace: bad header %q", line)
	}
	tail := bytes.TrimLeft(line[len(prefix):], " \t")
	var f [3][]byte
	var n int
	if bytes.HasPrefix(tail, []byte(`"`)) {
		q, qerr := strconv.QuotedPrefix(string(tail))
		if qerr == nil {
			name, qerr = strconv.Unquote(q)
		}
		if qerr != nil {
			return "", rest, fmt.Errorf("trace: bad quoted name in header %q", line)
		}
		n = 1 + splitFields(tail[len(q):], f[1:])
	} else {
		n = splitFields(tail, f[:])
		if n > 0 {
			name = string(f[0])
		}
	}
	if n != 3 {
		return "", rest, fmt.Errorf("trace: bad header %q", line)
	}
	return name, [2][]byte{f[1], f[2]}, nil
}

// Read parses a trace previously serialized with Write. Fields are
// separated by runs of Unicode white space, as strings.Fields splits
// them (spec.ReadText states the rule), and are parsed in place as
// subslices of the scanner's line, so a reference line allocates
// nothing.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	name, head, err := parseHeader(sc.Bytes())
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: name}
	if t.PlaceByFile, err = strconv.ParseBool(string(head[0])); err != nil {
		return nil, fmt.Errorf("trace: bad placeByFile: %v", err)
	}
	if t.CacheBlocks, err = strconv.Atoi(string(head[1])); err != nil {
		return nil, fmt.Errorf("trace: bad cacheBlocks: %v", err)
	}
	if err := readLines(sc, t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// readLines parses the `file`, `r` and `w` lines that follow the header
// into t, skipping blank lines.
//
//ppcvet:hotpath
func readLines(sc *bufio.Scanner, t *Trace) error {
	var f [3][]byte
	next := 0
	for sc.Scan() {
		line := sc.Bytes()
		n := splitFields(line, f[:])
		if n == 0 {
			continue
		}
		switch string(f[0]) {
		case "file":
			if n != 2 {
				return fmt.Errorf("trace: bad file line %q", line)
			}
			size, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return fmt.Errorf("trace: bad file size: %v", err)
			}
			t.Files = append(t.Files, layout.File{First: layout.BlockID(next), Blocks: size})
			next += size
		case "r", "w":
			if n != 3 {
				return fmt.Errorf("trace: bad ref line %q", line)
			}
			b, err := strconv.Atoi(string(f[1]))
			if err != nil {
				return fmt.Errorf("trace: bad block: %v", err)
			}
			c, err := strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return fmt.Errorf("trace: bad compute: %v", err)
			}
			t.Refs = append(t.Refs, Ref{Block: layout.BlockID(b), ComputeMs: c, Write: f[0][0] == 'w'})
		default:
			return fmt.Errorf("trace: unknown line %q", line)
		}
	}
	return sc.Err()
}
