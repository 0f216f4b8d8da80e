package main

// Inputs and the answers the program must give, computed apart from it.
// Orders come from internal/workload's seeded generator; the benchmark
// decodes each generated fragment into a record, renders the XML it sends,
// numbers the nodes densely in document order (the numbering the paper's
// ID factory must follow) and derives every expected read and query result
// from the records with its own code.

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/token"
	"repro/internal/workload"
)

type line struct {
	no, item, price string
	qty             int
}

type order struct {
	id, status, customer, date string
	lines                      []line
}

// Node layout of one order, in document order: the order element, its
// two attributes, customer and its text, date and its text, then eight
// nodes per line (line, @no, item, text, qty, text, price, text).
const (
	nodesPerOrderHead = 7
	nodesPerLine      = 8
)

func (o *order) nodes() int { return nodesPerOrderHead + nodesPerLine*len(o.lines) }

// genOrder draws order seq from the generator and decodes it.
func genOrder(g *workload.Gen, seq int) (*order, error) {
	return decodeOrder(g.PurchaseOrder(seq))
}

// decodeOrder reads one generated <purchase-order> fragment into a record,
// refusing any shape the expected answers below do not model.
func decodeOrder(toks []token.Token) (*order, error) {
	d := tokReader{toks: toks}
	o := &order{}
	d.elem("purchase-order")
	o.id = d.attr("id")
	o.status = d.attr("status")
	o.customer = d.textElem("customer")
	o.date = d.textElem("date")
	for d.err == nil && d.peekElem("line") {
		d.elem("line")
		var l line
		l.no = d.attr("no")
		l.item = d.textElem("item")
		q := d.textElem("qty")
		l.price = d.textElem("price")
		d.end()
		if d.err == nil {
			n, err := strconv.Atoi(q)
			if err != nil {
				return nil, fmt.Errorf("order %s: qty %q: %v", o.id, q, err)
			}
			l.qty = n
		}
		o.lines = append(o.lines, l)
	}
	d.end()
	if d.err == nil && d.pos != len(toks) {
		d.err = fmt.Errorf("trailing tokens after order")
	}
	if d.err != nil {
		return nil, fmt.Errorf("decode generated order: %w", d.err)
	}
	return o, nil
}

type tokReader struct {
	toks []token.Token
	pos  int
	err  error
}

func (d *tokReader) next(kind token.Kind, name string) token.Token {
	if d.err != nil {
		return token.Token{}
	}
	if d.pos >= len(d.toks) {
		d.err = fmt.Errorf("want %v %q, got end of fragment", kind, name)
		return token.Token{}
	}
	t := d.toks[d.pos]
	if t.Kind != kind || (name != "" && t.Name != name) {
		d.err = fmt.Errorf("token %d: want %v %q, got %v %q", d.pos, kind, name, t.Kind, t.Name)
		return token.Token{}
	}
	d.pos++
	return t
}

func (d *tokReader) peekElem(name string) bool {
	return d.pos < len(d.toks) && d.toks[d.pos].Kind == token.BeginElement && d.toks[d.pos].Name == name
}

func (d *tokReader) elem(name string) { d.next(token.BeginElement, name) }
func (d *tokReader) end()             { d.next(token.EndElement, "") }

func (d *tokReader) attr(name string) string {
	v := d.next(token.BeginAttribute, name).Value
	d.next(token.EndAttribute, "")
	return v
}

func (d *tokReader) textElem(name string) string {
	d.elem(name)
	v := d.next(token.Text, "").Value
	d.end()
	return v
}

// canon is the benchmark's own serialization, used on both sides of every
// content comparison: expected records are written with it, and the
// program's answers are parsed (with encoding/xml or from tokens) and
// written with it again.
type canon struct{ strings.Builder }

func (c *canon) start(name string, attrs ...string) {
	c.WriteByte('<')
	c.WriteString(name)
	for i := 0; i+1 < len(attrs); i += 2 {
		c.WriteByte(' ')
		c.WriteString(attrs[i])
		c.WriteString(`="`)
		xml.EscapeText(c, []byte(attrs[i+1]))
		c.WriteByte('"')
	}
	c.WriteByte('>')
}

func (c *canon) text(s string) { xml.EscapeText(c, []byte(s)) }

func (c *canon) end(name string) {
	c.WriteString("</")
	c.WriteString(name)
	c.WriteByte('>')
}

func (c *canon) textElem(name, v string) {
	c.start(name)
	c.text(v)
	c.end(name)
}

func (o *order) writeLine(c *canon, l *line) {
	c.start("line", "no", l.no)
	c.textElem("item", l.item)
	c.textElem("qty", strconv.Itoa(l.qty))
	c.textElem("price", l.price)
	c.end("line")
}

func (o *order) write(c *canon) {
	c.start("purchase-order", "id", o.id, "status", o.status)
	c.textElem("customer", o.customer)
	c.textElem("date", o.date)
	for i := range o.lines {
		o.writeLine(c, &o.lines[i])
	}
	c.end("purchase-order")
}

// xmlText is the order as the XML the benchmark sends.
func (o *order) xmlText() string {
	var c canon
	o.write(&c)
	return c.String()
}

// expectNode is the canonical rendering of node k (0-based, document
// order) of the order: an element's whole subtree, a text node's text, or
// an attribute as @name=value.
func (o *order) expectNode(k int) string {
	var c canon
	switch k {
	case 0:
		o.write(&c)
		return c.String()
	case 1:
		return "@id=" + o.id
	case 2:
		return "@status=" + o.status
	case 3:
		c.textElem("customer", o.customer)
		return c.String()
	case 4:
		c.text(o.customer)
		return c.String()
	case 5:
		c.textElem("date", o.date)
		return c.String()
	case 6:
		c.text(o.date)
		return c.String()
	}
	j, r := (k-nodesPerOrderHead)/nodesPerLine, (k-nodesPerOrderHead)%nodesPerLine
	l := &o.lines[j]
	switch r {
	case 0:
		o.writeLine(&c, l)
	case 1:
		return "@no=" + l.no
	case 2:
		c.textElem("item", l.item)
	case 3:
		c.text(l.item)
	case 4:
		c.textElem("qty", strconv.Itoa(l.qty))
	case 5:
		c.text(strconv.Itoa(l.qty))
	case 6:
		c.textElem("price", l.price)
	case 7:
		c.text(l.price)
	}
	return c.String()
}

// canonXML parses one ReadNode/row answer with encoding/xml and writes it
// canonically. Attribute answers arrive as name="value".
func canonXML(s string) (string, error) {
	if name, v, ok := strings.Cut(s, "="); ok && !strings.ContainsAny(name, "<> ") {
		uv, err := strconv.Unquote(v)
		if err != nil {
			return "", fmt.Errorf("attribute answer %q: %v", s, err)
		}
		return "@" + name + "=" + uv, nil
	}
	dec := xml.NewDecoder(strings.NewReader(s))
	var c canon
	for {
		t, err := dec.Token()
		if err == io.EOF {
			return c.String(), nil
		}
		if err != nil {
			return "", fmt.Errorf("parse answer %.80q: %v", s, err)
		}
		switch t := t.(type) {
		case xml.StartElement:
			attrs := make([]string, 0, 2*len(t.Attr))
			for _, a := range t.Attr {
				attrs = append(attrs, a.Name.Local, a.Value)
			}
			c.start(t.Name.Local, attrs...)
		case xml.EndElement:
			c.end(t.Name.Local)
		case xml.CharData:
			c.text(string(t))
		default:
			return "", fmt.Errorf("answer %.80q: unexpected %T", s, t)
		}
	}
}

// canonTokens writes a token sequence (a node read in process, or an
// XQuery result) canonically.
func canonTokens(toks []token.Token) (string, error) {
	if len(toks) > 0 && toks[0].Kind == token.BeginAttribute {
		return "@" + toks[0].Name + "=" + toks[0].Value, nil
	}
	var c canon
	var names []string
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case token.BeginElement:
			var attrs []string
			for i+1 < len(toks) && toks[i+1].Kind == token.BeginAttribute {
				attrs = append(attrs, toks[i+1].Name, toks[i+1].Value)
				i++
				if i+1 < len(toks) && toks[i+1].Kind == token.EndAttribute {
					i++
				}
			}
			c.start(t.Name, attrs...)
			names = append(names, t.Name)
		case token.EndElement:
			if len(names) == 0 {
				return "", fmt.Errorf("unbalanced end element")
			}
			c.end(names[len(names)-1])
			names = names[:len(names)-1]
		case token.Text:
			c.text(t.Value)
		default:
			return "", fmt.Errorf("unexpected token %v", t.Kind)
		}
	}
	if len(names) != 0 {
		return "", fmt.Errorf("unclosed element %q", names[len(names)-1])
	}
	return c.String(), nil
}

func itemTokens(items []core.Item) []token.Token {
	toks := make([]token.Token, len(items))
	for i, it := range items {
		toks[i] = it.Tok
	}
	return toks
}

// placed is an order in the store with the id of its first node.
type placed struct {
	o     *order
	first core.NodeID
}

// docOrder is the live orders of a store in document order. Orders are
// only ever appended as the last child of the root, so document order is
// id order.
type docOrder []placed

func (d docOrder) sorted() docOrder {
	sort.Slice(d, func(i, j int) bool { return d[i].first < d[j].first })
	return d
}

// lookup finds the order holding node id and the node's index in it.
func (d docOrder) lookup(id core.NodeID) (*order, int, bool) {
	i := sort.Search(len(d), func(i int) bool { return d[i].first > id }) - 1
	if i < 0 {
		return nil, 0, false
	}
	k := int(id - d[i].first)
	if k >= d[i].o.nodes() {
		return nil, 0, false
	}
	return d[i].o, k, true
}

// row is one expected query match.
type row struct {
	id  core.NodeID
	xml string // canonical
}

func lineNode(first core.NodeID, j, r int) core.NodeID {
	return first + core.NodeID(nodesPerOrderHead+nodesPerLine*j+r)
}

// The query shapes. Each has an expected-answer function over docOrder.

func pushdownByID(lit string) string {
	return `//purchase-order[@id="` + lit + `"]/line/item`
}

func pushdownByPos(n int) string {
	return "//purchase-order[" + strconv.Itoa(n) + "]/customer"
}

const (
	fallbackLines  = `//line[qty > 98]/item`
	fallbackGlobex = `//purchase-order[customer="Globex"][line/qty > 99]/date`
	xqueryFLWOR    = `for $p in //purchase-order where $p/@status = "billed" and $p/line/qty > 97 return <o id="{$p/@id}">{$p/customer/text()}</o>`
)

func expectByID(d docOrder, lit string) []row {
	var out []row
	for _, p := range d {
		if p.o.id != lit {
			continue
		}
		for j := range p.o.lines {
			out = append(out, row{lineNode(p.first, j, 2), p.o.expectNode(nodesPerOrderHead + nodesPerLine*j + 2)})
		}
	}
	return out
}

func expectByPos(d docOrder, n int) []row {
	if n < 1 || n > len(d) {
		return nil
	}
	p := d[n-1]
	return []row{{p.first + 3, p.o.expectNode(3)}}
}

func expectLines(d docOrder) []row {
	var out []row
	for _, p := range d {
		for j, l := range p.o.lines {
			if l.qty > 98 {
				out = append(out, row{lineNode(p.first, j, 2), p.o.expectNode(nodesPerOrderHead + nodesPerLine*j + 2)})
			}
		}
	}
	return out
}

func expectGlobex(d docOrder) []row {
	var out []row
	for _, p := range d {
		if p.o.customer != "Globex" {
			continue
		}
		for _, l := range p.o.lines {
			if l.qty > 99 {
				out = append(out, row{p.first + 5, p.o.expectNode(5)})
				break
			}
		}
	}
	return out
}

func expectFLWOR(d docOrder) string {
	var c canon
	for _, p := range d {
		if p.o.status != "billed" {
			continue
		}
		for _, l := range p.o.lines {
			if l.qty > 97 {
				c.start("o", "id", p.o.id)
				c.text(p.o.customer)
				c.end("o")
				break
			}
		}
	}
	return c.String()
}

// shape is one query of the query workload's round.
type shape struct {
	class  string // pushdown, fallback or xquery
	expr   string
	expect func(docOrder) []row
	flwor  bool
}

// queryShapes is the fixed round of the query workload: attribute-equality
// and positional pushdown paths cycling over literals drawn from the
// loaded orders, two child-value-predicate fallbacks, and one FLWOR.
func queryShapes(lits []string, positions []int) []shape {
	var out []shape
	for _, lit := range lits {
		lit := lit
		out = append(out, shape{class: classPushdown, expr: pushdownByID(lit), expect: func(d docOrder) []row { return expectByID(d, lit) }})
	}
	for _, n := range positions {
		n := n
		out = append(out, shape{class: classPushdown, expr: pushdownByPos(n), expect: func(d docOrder) []row { return expectByPos(d, n) }})
	}
	out = append(out,
		shape{class: classFallback, expr: fallbackLines, expect: expectLines},
		shape{class: classFallback, expr: fallbackGlobex, expect: expectGlobex},
		shape{class: classXQuery, expr: xqueryFLWOR, flwor: true},
	)
	return out
}

// store load: the root element wraps the first batch; every later batch
// is appended as the last child of the root, one coarse range each.
type loadPlan struct {
	first   string   // <purchase-orders> with the first batch
	batches []string // later batches, each a forest of orders
	starts  []int    // index in orders of each later batch's first order
	orders  docOrder // loaded orders with their dense ids
	bytes   int64    // XML bytes sent
}

const rootID = core.NodeID(1)

func planLoad(g *workload.Gen, nOrders, batch, seqBase int) (*loadPlan, error) {
	lp := &loadPlan{}
	next := rootID + 1
	var cur strings.Builder
	start := 0
	flush := func(end int) {
		if lp.first == "" {
			lp.first = "<purchase-orders>" + cur.String() + "</purchase-orders>"
			lp.bytes += int64(len(lp.first))
		} else {
			lp.batches = append(lp.batches, cur.String())
			lp.starts = append(lp.starts, start)
			lp.bytes += int64(cur.Len())
		}
		cur.Reset()
		start = end
	}
	for i := 0; i < nOrders; i++ {
		o, err := genOrder(g, seqBase+i)
		if err != nil {
			return nil, err
		}
		lp.orders = append(lp.orders, placed{o, next})
		next += core.NodeID(o.nodes())
		cur.WriteString(o.xmlText())
		if (i+1)%batch == 0 || i == nOrders-1 {
			flush(i + 1)
		}
	}
	return lp, nil
}
