package tensor

// Undrawn reports whether t is a seeded tensor whose values were never
// read, for the external tests of what building and compiling a model
// draw.
var Undrawn = undrawn
