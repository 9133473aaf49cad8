// Package repro is a from-scratch Go reproduction of "Separating key
// management from file system security" (Mazières, Kaminsky, Kaashoek,
// Witchel — SOSP 1999): the SFS secure network file system.
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory), command-line tools under cmd/, and runnable
// examples under examples/. The cmd/sfsbench tool regenerates every
// table and figure of the paper's evaluation, and internal/bench's
// tests check each at a smaller size; EXPERIMENTS.md records
// paper-vs-measured values.
package repro
