// Package client is a small synchronous client for the rfview query service
// (see internal/server for the newline-delimited JSON protocol). It is the
// client the benchmark's served workloads drive and a starting point for
// embedding rfview access in other programs.
//
// Requests are encoded with encoding/json. Each response line is read whole
// and parsed by the server package's response codec (server.Response's
// UnmarshalJSON), which yields what encoding/json would: numbers as float64,
// strings, bools and nil, with all cells of a result in one backing array.
//
// A Client owns one TCP connection and is safe for concurrent use: requests
// are serialized on the connection, one outstanding request at a time. Open
// several clients for pipelined load (as the benchmark does, one per CPU).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	rferrors "rfview/errors"
	"rfview/internal/server"
)

// Client is one connection to an rfview server.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// long reassembles a response line longer than r's buffer.
	long   []byte
	nextID uint64
}

// Result is the client-side view of one statement outcome. Row values are
// the JSON decodings of the wire protocol: float64 for numbers, string,
// bool, or nil.
type Result struct {
	Columns   []string
	Rows      [][]any
	Affected  int
	Plan      string
	Rewritten string
	// ElapsedUs is the server-reported execution time in microseconds.
	ElapsedUs int64
	// Session is the server-assigned session id of this connection.
	Session uint64
}

// Dial connects to an rfview server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RequestOption adjusts one request before it is sent.
type RequestOption func(*server.Request)

// WithTimeout bounds the statement's server-side execution; on expiry the
// call fails with an error matching rfview/errors.ErrCancelled. The wire
// carries whole milliseconds, so d is rounded up, to at least 1 ms: a
// timeout of 0 would mean none at all.
func WithTimeout(d time.Duration) RequestOption {
	ms := max(1, (d+time.Millisecond-1)/time.Millisecond)
	return func(r *server.Request) { r.TimeoutMs = int64(ms) }
}

// WithAnalyze asks for the instrumented plan (per-operator rows and timings)
// in Result.Plan.
func WithAnalyze() RequestOption {
	return func(r *server.Request) { r.Analyze = true }
}

// roundTrip sends one request and reads its response.
func (c *Client) roundTrip(op, sql string, opts ...RequestOption) (*server.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req := server.Request{ID: c.nextID, Op: op, SQL: sql}
	for _, o := range opts {
		o(&req)
	}
	line, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if line, err = c.readLine(); err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	var resp server.Response
	if err := resp.UnmarshalJSON(line); err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		// Reconstruct the engine's typed error from the stable wire code, so
		// errors.Is works identically against a remote or embedded engine.
		return nil, rferrors.FromCode(rferrors.Code(resp.Code), "server: "+resp.Error)
	}
	return &resp, nil
}

// readLine returns the next response line, valid until the next read.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	c.long = append(c.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = c.r.ReadSlice('\n')
		c.long = append(c.long, line...)
	}
	return c.long, err
}

func toResult(resp *server.Response) *Result {
	return &Result{
		Columns: resp.Columns, Rows: resp.Rows, Affected: resp.Affected,
		Plan: resp.Plan, Rewritten: resp.Rewritten,
		ElapsedUs: resp.ElapsedUs, Session: resp.Session,
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip("ping", "")
	return err
}

// Query executes a statement and returns columns and rows: the
// context.Background() convenience form of QueryContext, with no deadline to
// forward to the server.
func (c *Client) Query(sql string, opts ...RequestOption) (*Result, error) {
	return c.QueryContext(context.Background(), sql, opts...)
}

// QueryContext executes a statement and returns columns and rows. A context
// already cancelled fails immediately with an error matching
// rfview/errors.ErrCancelled; a context deadline is forwarded to the server
// as a statement timeout, so the call unblocks over the wire when it
// expires.
func (c *Client) QueryContext(ctx context.Context, sql string, opts ...RequestOption) (*Result, error) {
	resp, err := c.roundTripCtx(ctx, "query", sql, opts...)
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// Exec executes a statement and returns the affected count: the
// context.Background() convenience form of ExecContext.
func (c *Client) Exec(sql string, opts ...RequestOption) (*Result, error) {
	return c.ExecContext(context.Background(), sql, opts...)
}

// ExecContext executes a statement and returns the affected count, with the
// same context semantics as QueryContext.
func (c *Client) ExecContext(ctx context.Context, sql string, opts ...RequestOption) (*Result, error) {
	resp, err := c.roundTripCtx(ctx, "exec", sql, opts...)
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// roundTripCtx applies the context to one round trip: a pre-cancelled
// context short-circuits, a deadline becomes a server-side statement
// timeout.
func (c *Client) roundTripCtx(ctx context.Context, op, sql string, opts ...RequestOption) (*server.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, rferrors.Wrap(rferrors.CodeCancelled, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		opts = append(opts, WithTimeout(time.Until(dl)))
	}
	return c.roundTrip(op, sql, opts...)
}

// Stats fetches server, session, and cache counters.
func (c *Client) Stats() (*server.StatsReply, error) {
	resp, err := c.roundTrip("stats", "")
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("client: stats response carried no payload")
	}
	return resp.Stats, nil
}

// Begin opens a transaction on this connection. Statements executed through
// the client until Commit or Rollback read at the transaction's snapshot and
// stay invisible to other connections. The server rejects a nested Begin
// with code "txn_state".
func (c *Client) Begin() error {
	_, err := c.roundTrip("exec", "BEGIN")
	return err
}

// Commit publishes the connection's open transaction atomically. A
// first-committer-wins conflict surfaces here (or on the conflicting
// statement) with code "conflict"; the transaction is then already rolled
// back.
func (c *Client) Commit() error {
	_, err := c.roundTrip("exec", "COMMIT")
	return err
}

// Rollback discards the connection's open transaction.
func (c *Client) Rollback() error {
	_, err := c.roundTrip("exec", "ROLLBACK")
	return err
}

// Explain returns the plan text for a read statement. Pass WithAnalyze for
// the executed, instrumented plan (EXPLAIN ANALYZE).
func (c *Client) Explain(sql string, opts ...RequestOption) (string, error) {
	resp, err := c.roundTrip("explain", sql, opts...)
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Metrics fetches the server's Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	resp, err := c.roundTrip("metrics", "")
	if err != nil {
		return "", err
	}
	return resp.Metrics, nil
}
