package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ppcsim/internal/layout"
)

// Text is a ppctrace text trace as the line rule reads it: the fields of
// trace.Trace, before trace.Trace.Validate checks them.
type Text struct {
	Name        string
	PlaceByFile bool
	CacheBlocks int
	Files       []layout.File
	Refs        []TextRef
}

// TextRef is one `r` or `w` line.
type TextRef struct {
	Block     layout.BlockID
	ComputeMs float64
	Write     bool
}

// ReadText states the ppctrace line rule of docs/trace-format.md: a
// header `ppctrace <name> <placeByFile> <cacheBlocks>` (the name bare or
// Go-quoted), then `file`, `r` and `w` lines whose fields are separated
// by runs of Unicode white space, exactly as strings.Fields splits them;
// blank lines are skipped. Its error strings are the ones trace.Read
// returns for the same input.
func ReadText(r io.Reader) (*Text, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	name, head, err := textHeader(sc.Text())
	if err != nil {
		return nil, err
	}
	t := &Text{Name: name}
	if t.PlaceByFile, err = strconv.ParseBool(head[0]); err != nil {
		return nil, fmt.Errorf("trace: bad placeByFile: %v", err)
	}
	if t.CacheBlocks, err = strconv.Atoi(head[1]); err != nil {
		return nil, fmt.Errorf("trace: bad cacheBlocks: %v", err)
	}
	next := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "file":
			if len(f) != 2 {
				return nil, fmt.Errorf("trace: bad file line %q", sc.Text())
			}
			n, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("trace: bad file size: %v", err)
			}
			t.Files = append(t.Files, layout.File{First: layout.BlockID(next), Blocks: n})
			next += n
		case "r", "w":
			if len(f) != 3 {
				return nil, fmt.Errorf("trace: bad ref line %q", sc.Text())
			}
			b, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("trace: bad block: %v", err)
			}
			c, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad compute: %v", err)
			}
			t.Refs = append(t.Refs, TextRef{Block: layout.BlockID(b), ComputeMs: c, Write: f[0] == "w"})
		default:
			return nil, fmt.Errorf("trace: unknown line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// textHeader splits the header line, accepting bare and Go-quoted names.
func textHeader(line string) (name string, rest []string, err error) {
	const prefix = "ppctrace "
	if !strings.HasPrefix(line, prefix) {
		return "", nil, fmt.Errorf("trace: bad header %q", line)
	}
	tail := strings.TrimLeft(line[len(prefix):], " \t")
	if strings.HasPrefix(tail, `"`) {
		q, qerr := strconv.QuotedPrefix(tail)
		if qerr != nil {
			return "", nil, fmt.Errorf("trace: bad quoted name in header %q", line)
		}
		if name, err = strconv.Unquote(q); err != nil {
			return "", nil, fmt.Errorf("trace: bad quoted name in header %q", line)
		}
		rest = strings.Fields(tail[len(q):])
	} else {
		f := strings.Fields(tail)
		if len(f) == 0 {
			return "", nil, fmt.Errorf("trace: bad header %q", line)
		}
		name, rest = f[0], f[1:]
	}
	if len(rest) != 2 {
		return "", nil, fmt.Errorf("trace: bad header %q", line)
	}
	return name, rest, nil
}
