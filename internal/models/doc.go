// Package models builds the four benchmark model families of the paper's
// experimental evaluation (Section IV):
//
//   - the 8-bit typed FIFO queue (Table 1),
//   - processors sending messages through an unordered network (Table 1),
//   - the moving-average filter, with and without assisting invariants
//     (Tables 1 and 2, Figure 2), and
//   - the 3-stage pipelined processor with register bypass and branch
//     stall verified against a non-pipelined specification (Table 3,
//     Figure 3).
//
// Each Build* function returns a manager-independent *ir.Model whose
// variables are declared in a deliberately interleaved order (the
// standard datapath ordering heuristic the paper cites, ref [19]);
// instantiate it on a *bdd.Manager with Instantiate or MustInstantiate to
// get a verify.Problem. Every model has an optional seeded bug so
// counterexample generation can be exercised end to end.
package models
