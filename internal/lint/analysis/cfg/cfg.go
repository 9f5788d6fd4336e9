// Package cfg builds intraprocedural control-flow graphs over the
// standard library's go/ast, for the flow-sensitive skylint analyzers
// (goroleak, lockorder, lockset). Like the rest of internal/lint it is a
// dependency-free miniature of its x/tools counterpart
// (golang.org/x/tools/go/cfg), covering the statement shapes that occur in
// this repository: if/else, for (with init/cond/post), range, switch and
// type switch (with fallthrough), select, labeled statements, goto,
// break/continue (labeled and bare), return, defer and panic.
//
// The graph is a set of basic blocks. Each block holds the AST nodes that
// execute unconditionally once the block is entered, in execution order,
// and edges to its possible successors. Two synthetic blocks bracket the
// function: Entry (no nodes, one successor) and Exit, which every
// `return` and the natural end of the body flow into. A statement that
// terminates the program — panic, os.Exit, log.Fatal* — ends its block
// with no successors: control never continues, and for leak analyses a
// crashing path is not a leaking path.
//
// Defer is deliberately simple: a DeferStmt appears as an ordinary node in
// the block where it executes (i.e. where the call is *registered*).
// Forward analyses that ask "is f guaranteed to be called once we pass
// this point" can treat the registration as the call, because a registered
// defer runs on every subsequent exit from the function, normal or
// panicking.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across builds
	// of the same function, useful for per-block tables and tests).
	Index int
	// Kind is a human-readable tag ("entry", "if.then", "for.body", ...)
	// for tests and debugging; analyses should not dispatch on it.
	Kind string
	// Nodes are the statements and control expressions executed in order
	// when the block runs.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// New builds the control-flow graph of body. Pass the body of an
// *ast.FuncDecl or *ast.FuncLit; a nil body yields a trivial entry→exit
// graph. Function literals nested inside body are NOT traversed into —
// they have their own graphs — but the FuncLit node itself appears in the
// enclosing block (its construction is an ordinary expression).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: make(map[string]*labelBlocks)}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	cur := b.newBlock("body")
	link(b.g.Entry, cur)
	if body != nil {
		cur = b.stmts(cur, body.List)
	}
	link(cur, b.g.Exit)
	return b.g
}

// Reachable returns, indexed by Block.Index, the blocks that a path
// from Entry reaches without first passing a block where stop holds. The
// breadth-first search marks a stop block but does not expand it; a nil
// stop expands every block. This answers the flow-sensitive analyzers'
// one dataflow question: an obligation discharged by the stop blocks is
// met on every path to b exactly when b is not reachable.
func (g *Graph) Reachable(stop func(*Block) bool) []bool {
	seen := make([]bool, len(g.Blocks))
	seen[g.Entry.Index] = true
	queue := []*Block{g.Entry}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if stop != nil && stop(b) {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

// String renders the graph compactly for tests: one line per block,
// "i(kind) -> succ,succ".
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%d(%s) ->", b.Index, b.Kind)
		for i, s := range b.Succs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// labelBlocks tracks the blocks a label can transfer control to.
type labelBlocks struct {
	// target is where `goto label` and the label's own statement jump to.
	target *Block
	// brk/cont are the break/continue targets when the label names a
	// for/switch/select statement; nil otherwise.
	brk, cont *Block
}

type builder struct {
	g      *Graph
	labels map[string]*labelBlocks
	// breaks/continues are the innermost targets for bare break/continue.
	breaks    []*Block
	continues []*Block
	// pendingLabel is set between a labeled statement's head and the
	// statement it labels, so for/switch/select can register their
	// break/continue blocks under the label.
	pendingLabel *labelBlocks
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmts threads the statement list through cur, returning the block where
// control continues (nil when the list cannot fall through).
func (b *builder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt adds one statement to the graph starting at cur. A nil cur means
// the statement is unreachable (after return/goto); it still gets blocks —
// a label inside may make it reachable again.
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.append(cur, s.Init)
		}
		cur = b.append(cur, s.Cond)
		then := b.newBlock("if.then")
		link(cur, then)
		thenEnd := b.stmts(then, s.Body.List)
		join := b.newBlock("if.join")
		link(thenEnd, join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			link(cur, els)
			elsEnd := b.stmt(els, s.Else)
			link(elsEnd, join)
		} else {
			link(cur, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.append(cur, s.Init)
		}
		head := b.newBlock("for.head")
		link(cur, head)
		join := b.newBlock("for.join")
		body := b.newBlock("for.body")
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			link(head, body)
			link(head, join)
		} else {
			// for {}: the join is reachable only via break.
			link(head, body)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			link(post, head)
		}
		b.registerLabel(join, post)
		b.pushLoop(join, post)
		bodyEnd := b.stmts(body, s.Body.List)
		b.popLoop()
		link(bodyEnd, post)
		return join

	case *ast.RangeStmt:
		cur = b.append(cur, s.X)
		head := b.newBlock("range.head")
		link(cur, head)
		join := b.newBlock("range.join")
		body := b.newBlock("range.body")
		link(head, body)
		link(head, join) // zero iterations
		b.registerLabel(join, head)
		b.pushLoop(join, head)
		bodyEnd := b.stmts(body, s.Body.List)
		b.popLoop()
		link(bodyEnd, head)
		return join

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.append(cur, s.Init)
		}
		if s.Tag != nil {
			cur = b.append(cur, s.Tag)
		}
		return b.switchBody(cur, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.append(cur, s.Init)
		}
		cur = b.append(cur, s.Assign)
		return b.switchBody(cur, s.Body, "typeswitch")

	case *ast.SelectStmt:
		join := b.newBlock("select.join")
		b.registerLabel(join, nil)
		b.pushBreak(join)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			link(cur, blk)
			if cc.Comm != nil {
				blk = b.stmt(blk, cc.Comm)
			}
			end := b.stmts(blk, cc.Body)
			link(end, join)
		}
		b.popBreak()
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successor.
			_ = cur
			return b.newBlock("unreachable")
		}
		return join

	case *ast.ReturnStmt:
		cur = b.append(cur, s)
		link(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		return b.branch(cur, s)

	case *ast.LabeledStmt:
		lb := b.label(s.Label.Name)
		if lb.target == nil {
			lb.target = b.newBlock("label." + s.Label.Name)
		}
		link(cur, lb.target)
		b.pendingLabel = lb
		end := b.stmt(lb.target, s.Stmt)
		b.pendingLabel = nil
		return end

	case *ast.ExprStmt:
		cur = b.append(cur, s)
		if IsTerminatingCall(s.X) {
			// panic/os.Exit: control never continues; a fresh block keeps
			// any following (dead) statements out of live paths.
			return nil
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Assignments, declarations, sends, go and defer statements,
		// inc/dec: straight-line nodes.
		return b.append(cur, s)
	}
}

// switchBody wires the case clauses of a switch/type switch. Go switch
// cases do not fall through by default; an explicit fallthrough statement
// jumps to the next clause's block.
func (b *builder) switchBody(cur *Block, body *ast.BlockStmt, kind string) *Block {
	join := b.newBlock(kind + ".join")
	b.registerLabel(join, nil)
	clauses := make([]*Block, len(body.List))
	hasDefault := false
	for i, c := range body.List {
		clauses[i] = b.newBlock(kind + ".case")
		link(cur, clauses[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		link(cur, join)
	}
	b.pushBreak(join)
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		blk := clauses[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		end := b.stmtsWithFallthrough(blk, cc.Body, clauses, i)
		link(end, join)
	}
	b.popBreak()
	return join
}

// stmtsWithFallthrough is stmts, but a trailing fallthrough links to the
// next case clause instead of the join.
func (b *builder) stmtsWithFallthrough(cur *Block, list []ast.Stmt, clauses []*Block, i int) *Block {
	for _, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			if i+1 < len(clauses) {
				link(cur, clauses[i+1])
			}
			return nil
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *builder) branch(cur *Block, s *ast.BranchStmt) *Block {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if lb := b.label(s.Label.Name); lb.brk != nil {
				link(cur, lb.brk)
			}
		} else if n := len(b.breaks); n > 0 {
			link(cur, b.breaks[n-1])
		}
	case "continue":
		if s.Label != nil {
			if lb := b.label(s.Label.Name); lb.cont != nil {
				link(cur, lb.cont)
			}
		} else if n := len(b.continues); n > 0 {
			link(cur, b.continues[n-1])
		}
	case "goto":
		lb := b.label(s.Label.Name)
		if lb.target == nil {
			lb.target = b.newBlock("label." + s.Label.Name)
		}
		link(cur, lb.target)
	case "fallthrough":
		// Handled by stmtsWithFallthrough; a stray one ends the block.
	}
	return nil
}

func (b *builder) label(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	return lb
}

// registerLabel attaches break/continue targets to the label naming the
// loop/switch being built, if any.
func (b *builder) registerLabel(brk, cont *Block) {
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel.cont = cont
		b.pendingLabel = nil
	}
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreak(brk *Block) {
	b.breaks = append(b.breaks, brk)
	// A switch/select does not capture continue; keep the loop target by
	// pushing a sentinel copy of the current innermost one.
	if n := len(b.continues); n > 0 {
		b.continues = append(b.continues, b.continues[n-1])
	} else {
		b.continues = append(b.continues, nil)
	}
}

func (b *builder) popBreak() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// append adds node n to cur, allocating a fresh (unreachable) block when
// cur is nil so dead code still has a home.
func (b *builder) append(cur *Block, n ast.Node) *Block {
	if cur == nil {
		cur = b.newBlock("unreachable")
	}
	cur.Nodes = append(cur.Nodes, n)
	return cur
}

// IsTerminatingCall reports whether e is a call that never returns:
// panic(...), os.Exit(...), or log.Fatal*(...). Matching is syntactic
// (identifier names), which is exactly right for dead-path pruning — a
// local function shadowing `panic` would be vanishingly unidiomatic.
func IsTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		if pkg.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		if pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal") {
			return true
		}
		return false
	}
	return false
}
