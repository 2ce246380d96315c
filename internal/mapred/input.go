package mapred

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// RecordReader iterates the key/value records of one input split.
type RecordReader interface {
	// Next returns the next record, or io.EOF after the last. The key and
	// value are borrowed (Hadoop's reused-Writable contract): they are
	// valid until the next call to Next, which may overwrite them, and a
	// caller that keeps one longer must copy it.
	Next() (key, value []byte, err error)
}

// InputFormat builds a RecordReader over one split's byte stream.
type InputFormat func(r io.Reader) RecordReader

// lineScanner reads newline-terminated lines of any length: a line is
// bounded by its split, not by the reader's buffer.
type lineScanner struct {
	r *bufio.Reader
	// long holds a line that did not fit the reader's buffer.
	long []byte
}

func newLineScanner(r io.Reader) lineScanner {
	return lineScanner{r: bufio.NewReaderSize(r, inputBufferSize)}
}

// next returns the next line without its terminator ("\n" or "\r\n"),
// valid until the following call, or io.EOF after the last. A final line
// need not be terminated.
func (ls *lineScanner) next() ([]byte, error) {
	line, err := ls.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		ls.long = append(ls.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = ls.r.ReadSlice('\n')
			ls.long = append(ls.long, line...)
		}
		line = ls.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	line = bytes.TrimSuffix(line, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), nil
}

// LineInput yields one record per newline-terminated line: key is the
// decimal line number within the split, value is the line without the
// terminator (Hadoop's TextInputFormat, with line numbers standing in for
// byte offsets).
func LineInput(r io.Reader) RecordReader {
	return &lineReader{lines: newLineScanner(r)}
}

type lineReader struct {
	lines lineScanner
	line  int64
	key   []byte
}

func (lr *lineReader) Next() ([]byte, []byte, error) {
	val, err := lr.lines.next()
	if err != nil {
		return nil, nil, err
	}
	lr.key = strconv.AppendInt(lr.key[:0], lr.line, 10)
	lr.line++
	return lr.key, val, nil
}

// KVLineInput yields one record per line of the form "key<TAB>value"
// (Hadoop's KeyValueTextInputFormat). Lines without a tab become a record
// with an empty value.
func KVLineInput(r io.Reader) RecordReader {
	return &kvLineReader{lines: newLineScanner(r)}
}

type kvLineReader struct {
	lines lineScanner
}

func (kr *kvLineReader) Next() ([]byte, []byte, error) {
	line, err := kr.lines.next()
	if err != nil {
		return nil, nil, err
	}
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		return line[:i], line[i+1:], nil
	}
	return line, nil, nil
}

// WholeSplitInput yields the entire split as a single record (empty key),
// for jobs that need cross-record state within a split, like validators.
func WholeSplitInput(r io.Reader) RecordReader {
	return &wholeSplitReader{r: r}
}

type wholeSplitReader struct {
	r    io.Reader
	done bool
}

func (wr *wholeSplitReader) Next() ([]byte, []byte, error) {
	if wr.done {
		return nil, nil, io.EOF
	}
	wr.done = true
	data, err := io.ReadAll(wr.r)
	if err != nil {
		return nil, nil, err
	}
	return nil, data, nil
}

// FixedWidthInput yields fixed-length records of recordLen bytes whose
// first keyLen bytes are the key — the Terasort record layout (100-byte
// records, 10-byte keys).
func FixedWidthInput(keyLen, recordLen int) InputFormat {
	return func(r io.Reader) RecordReader {
		return &fixedReader{r: bufio.NewReaderSize(r, inputBufferSize), keyLen: keyLen, rec: make([]byte, recordLen)}
	}
}

type fixedReader struct {
	r      *bufio.Reader
	keyLen int
	rec    []byte // the current record
}

func (fr *fixedReader) Next() ([]byte, []byte, error) {
	n, err := io.ReadFull(fr.r, fr.rec)
	if err == io.EOF {
		return nil, nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return nil, nil, fmt.Errorf("mapred: truncated fixed-width record: %d of %d bytes", n, len(fr.rec))
	}
	if err != nil {
		return nil, nil, err
	}
	return fr.rec[:fr.keyLen], fr.rec[fr.keyLen:], nil
}
