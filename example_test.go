package grminer_test

import (
	"fmt"

	"grminer"
)

// ExampleOpen mines the paper's toy dating network for the strongest
// non-homophily ties.
func ExampleOpen() {
	g := grminer.ToyDating()
	e, err := grminer.Open(g, grminer.EngineConfig{Options: grminer.Options{
		MinSupp:  2,
		MinScore: 0.9,
		K:        3,
	}})
	if err != nil {
		panic(err)
	}
	defer e.Close()
	res, err := e.Mine()
	if err != nil {
		panic(err)
	}
	for _, s := range res.TopK {
		fmt.Printf("%s nhp=%.0f%% supp=%d\n", s.GR.Format(g.Schema()), 100*s.Score, s.Supp)
	}
	// Output:
	// (SEX:M) -> (SEX:F) nhp=100% supp=14
	// (SEX:F, RACE:Asian) -> (SEX:M) nhp=100% supp=7
	// (SEX:F, EDU:Grad) -> (SEX:M) nhp=100% supp=6
}

// ExampleWorkbench_QueryText reproduces the paper's Example 2: GR4 has low
// confidence but 100% non-homophily preference.
func ExampleWorkbench_QueryText() {
	g := grminer.ToyDating()
	wb := grminer.NewWorkbench(g)
	rep, err := wb.QueryText("(SEX:F, EDU:Grad) -> (SEX:M, EDU:College)")
	if err != nil {
		panic(err)
	}
	fmt.Printf("conf=%.1f%% nhp=%.1f%%\n", 100*rep.Conf, 100*rep.Nhp)
	// Output:
	// conf=33.3% nhp=100.0%
}

// ExampleParseGR shows the textual GR syntax, including edge descriptors.
func ExampleParseGR() {
	cfg := grminer.DefaultDBLPConfig()
	schema := grminer.DBLP(grminer.DBLPConfig{
		Authors: 10, Pairs: 0, PSameArea: cfg.PSameArea, PCrossDM: cfg.PCrossDM, Seed: 1,
	}).Schema()
	r, err := grminer.ParseGR(schema, "(A:DB) -[S:often]-> (A:DM)")
	if err != nil {
		panic(err)
	}
	fmt.Println(r.Format(schema))
	// Output:
	// (A:DB) -[S:often]-> (A:DM)
}

// ExampleEvalGR verifies the paper's GR1 counts by a direct scan.
func ExampleEvalGR() {
	g := grminer.ToyDating()
	r, err := grminer.ParseGR(g.Schema(), "(SEX:M) -> (SEX:F, RACE:Asian)")
	if err != nil {
		panic(err)
	}
	c := grminer.EvalGR(g, r)
	fmt.Printf("supp=%d lw=%d\n", c.LWR, c.LW)
	// Output:
	// supp=7 lw=14
}
