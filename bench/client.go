package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"gpml"
)

// answer digests a result independently of row order: the row count and
// the wrapping sum of per-row FNV-1a hashes.
type answer struct {
	rows int
	hash uint64
}

func (a *answer) add(cells []string) {
	h := fnv.New64a()
	for _, c := range cells {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	a.rows++
	a.hash += h.Sum64()
}

// oracleAnswer evaluates the request in-process with Query.EvalStore and
// digests the rows exactly as the server renders them (Bound.String per
// column, NULL for an unbound one).
func oracleAnswer(store gpml.Store, r request, uniq string) (answer, error) {
	q, err := gpml.Compile(r.text(uniq))
	if err != nil {
		return answer{}, err
	}
	res, err := q.EvalStore(store, gpml.WithParams(paramValues(r.Params)))
	if err != nil {
		return answer{}, err
	}
	var a answer
	for _, row := range res.Rows {
		a.add(renderRow(row, q.Columns()))
	}
	return a, nil
}

func paramValues(p map[string]string) map[string]gpml.Value {
	if len(p) == 0 {
		return nil
	}
	out := make(map[string]gpml.Value, len(p))
	for k, v := range p {
		out[k] = gpml.Str(v)
	}
	return out
}

// client is one closed-loop connection: a keep-alive HTTP/1.1 transport
// that never opens a second connection.
type client struct {
	hc  *http.Client
	url string
	br  *bufio.Reader
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: "http://" + addr + "/query",
		br:  bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what the timed phase keeps of one response.
type reply struct {
	latency  time.Duration // send → trailer line read
	firstRow time.Duration // send → second NDJSON line read
	rows     int           // the trailer's count
	bytes    int           // response body bytes
}

// post sends one /query body; any status but 200 is an error (the body is
// closed then).
func (c *client) post(body []byte) (*http.Response, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

var errNoTrailer = errors.New("stream ended without a rows trailer")

// query sends one request and reads the NDJSON stream line by line
// without decoding rows; only the last line (trailer or error record) is
// parsed. Any non-200 status, error record or missing trailer is an
// error.
func (c *client) query(body []byte) (reply, error) {
	var rep reply
	start := time.Now()
	resp, err := c.post(body)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	c.br.Reset(resp.Body)
	var last []byte // most recent complete line, when short enough to be a trailer
	lines, partial := 0, false
	for {
		chunk, err := c.br.ReadSlice('\n')
		rep.bytes += len(chunk)
		if err == bufio.ErrBufferFull {
			partial = true // a row longer than the buffer: keep reading the same line
			continue
		}
		if len(chunk) > 0 && err == nil {
			lines++
			if lines == 2 {
				rep.firstRow = time.Since(start)
			}
			last = last[:0]
			if !partial && len(chunk) < 512 {
				last = append(last, chunk...)
			}
			partial = false
		}
		if err != nil {
			if err != io.EOF {
				return rep, err
			}
			break
		}
	}
	rep.latency = time.Since(start)
	var tr struct {
		Rows  *int            `json:"rows"`
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(last, &tr) != nil || tr.Rows == nil {
		if tr.Error != nil {
			return rep, fmt.Errorf("error record: %s", tr.Error)
		}
		return rep, errNoTrailer
	}
	rep.rows = *tr.Rows
	return rep, nil
}

// queryDecoded is the correctness gate's request: every line is decoded,
// rows are digested, and the trailer must agree with the rows received.
func (c *client) queryDecoded(body []byte) (answer, error) {
	var a answer
	resp, err := c.post(body)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var hdr struct {
		Columns []string `json:"columns"`
	}
	if err := dec.Decode(&hdr); err != nil {
		return a, fmt.Errorf("header: %w", err)
	}
	for {
		var rec struct {
			Row   []string        `json:"row"`
			Rows  *int            `json:"rows"`
			Error json.RawMessage `json:"error"`
		}
		if err := dec.Decode(&rec); err != nil {
			return a, fmt.Errorf("record %d: %w", a.rows, err)
		}
		switch {
		case rec.Error != nil:
			return a, fmt.Errorf("error record: %s", rec.Error)
		case rec.Rows != nil:
			if *rec.Rows != a.rows {
				return a, fmt.Errorf("trailer says %d rows, stream carried %d", *rec.Rows, a.rows)
			}
			return a, nil
		case len(rec.Row) != len(hdr.Columns):
			return a, fmt.Errorf("row %d has %d cells for %d columns", a.rows, len(rec.Row), len(hdr.Columns))
		}
		a.add(rec.Row)
	}
}
