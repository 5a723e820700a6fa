package core

// Test helpers shared with the external core_test package.
var (
	RandCOO    = randCOO
	RandMatrix = randMatrix
)
