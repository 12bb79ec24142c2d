package main

import "repro/internal/eval"

// The pins below are outputs of the program as it stood when the
// benchmark was defined. A change that alters any of them changes what
// the study or the dedup pipeline computes, and every run that meets one
// counts a failed operation. A dedup-100k seed without a pin is still
// checked structurally and against floors, and its observed values are
// printed to standard error in this format.

// lodoCell names one (repetition seed, matcher) cell of lodo-abt.
type lodoCell struct {
	seed    uint64
	matcher string
}

// lodoPins are the per-cell confusion counts on ABT, for the study
// seeds lodo-abt runs.
var lodoPins = map[lodoCell]eval.Confusion{
	{1, "stringsim"}:     {TP: 27, FP: 33, TN: 1083, FN: 107},
	{1, "zeroer"}:        {TP: 134, FP: 652, TN: 464, FN: 0},
	{1, "ditto"}:         {TP: 82, FP: 52, TN: 1064, FN: 52},
	{1, "unicorn"}:       {TP: 107, FP: 7, TN: 1109, FN: 27},
	{1, "anymatch_gpt2"}: {TP: 130, FP: 44, TN: 1072, FN: 4},
	{1, "gpt4"}:          {TP: 123, FP: 1, TN: 1115, FN: 11},
	{2, "stringsim"}:     {TP: 30, FP: 27, TN: 1089, FN: 104},
	{2, "zeroer"}:        {TP: 134, FP: 652, TN: 464, FN: 0},
	{2, "ditto"}:         {TP: 85, FP: 30, TN: 1086, FN: 49},
	{2, "unicorn"}:       {TP: 109, FP: 11, TN: 1105, FN: 25},
	{2, "anymatch_gpt2"}: {TP: 132, FP: 61, TN: 1055, FN: 2},
	{2, "gpt4"}:          {TP: 127, FP: 1, TN: 1115, FN: 7},
}

// dedupPin is one dedup-100k outcome: accepted edges, block recall and
// cluster F1.
type dedupPin struct {
	edges      int
	recall, f1 float64
}

// dedupPins are keyed by the corpus seed (the workload seed) of a
// 100,000-record run.
var dedupPins = map[uint64]dedupPin{
	1:  {edges: 68012, recall: 0.9999141581778642, f1: 0.9927308843850758},
	2:  {edges: 67689, recall: 0.9999281784621572, f1: 0.9916221291347681},
	3:  {edges: 66897, recall: 0.9999128388390134, f1: 0.9917408528117645},
	4:  {edges: 67187, recall: 0.999884329545126, f1: 0.9912739711073104},
	5:  {edges: 67498, recall: 0.999942348159465, f1: 0.9923439425795693},
	6:  {edges: 66682, recall: 0.9998690490047725, f1: 0.9916288880263071},
	7:  {edges: 67836, recall: 0.9998567827681026, f1: 0.9921401658417803},
	8:  {edges: 67808, recall: 0.999957056356375, f1: 0.9913530963120954},
	9:  {edges: 67618, recall: 0.9999425625708993, f1: 0.9909307531229691},
	10: {edges: 66836, recall: 0.9998837428974177, f1: 0.9920354564802422},
	11: {edges: 67278, recall: 0.9998412927427499, f1: 0.9919718943716157},
}
