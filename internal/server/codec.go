package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/stream"
)

// Wire formats for sample-batch ingest. Both carry a sequence of
// stream.Batch values:
//
//   - binary (ContentTypeBinary): length-prefixed fixed-width frames, one
//     per batch (binary.go) — the canonical format `structslim push`
//     sends, decodable into pooled backing arrays with zero per-sample
//     allocations;
//   - NDJSON (ContentTypeNDJSON): one JSON-encoded batch per line — the
//     format a human can read and write, for hand-rolled clients (curl,
//     scripts).
//
// Both codecs are canonical: decoding and re-encoding an encoded value
// reproduces it byte-identically (the binary framing is a pure function
// of the batch and rejects length/count mismatches; JSON re-marshals
// struct fields in declaration order), which the fuzz test pins down.

// ContentTypeNDJSON negotiates newline-delimited JSON batches.
const ContentTypeNDJSON = "application/x-ndjson"

// DecodeBatches reads all batches of one request body in the given
// content type.
func DecodeBatches(r io.Reader, contentType string) ([]stream.Batch, error) {
	switch normalizeContentType(contentType) {
	case ContentTypeBinary:
		return decodeBinary(r, nil)
	case ContentTypeNDJSON:
		var bs []stream.Batch
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var b stream.Batch
			if err := json.Unmarshal([]byte(line), &b); err != nil {
				return nil, fmt.Errorf("ndjson line %d: %w", len(bs)+1, err)
			}
			bs = append(bs, b)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("ndjson: %w", err)
		}
		return bs, nil
	default:
		return nil, fmt.Errorf("unsupported content type %q (want %s or %s)",
			contentType, ContentTypeBinary, ContentTypeNDJSON)
	}
}

// EncodeBatches writes batches in the given content type.
func EncodeBatches(w io.Writer, contentType string, bs []stream.Batch) error {
	switch normalizeContentType(contentType) {
	case ContentTypeBinary:
		return encodeBinary(w, bs)
	case ContentTypeNDJSON:
		bw := bufio.NewWriter(w)
		for i := range bs {
			data, err := json.Marshal(&bs[i])
			if err != nil {
				return err
			}
			if _, err := bw.Write(data); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		return bw.Flush()
	default:
		return fmt.Errorf("unsupported content type %q", contentType)
	}
}

// normalizeContentType strips parameters ("; charset=...") and spaces.
func normalizeContentType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(strings.ToLower(ct))
}
