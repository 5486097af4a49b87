package relay

// The test-only oracles and helpers of fold_test.go and fuse_test.go,
// for the external
// zoo tests.
var (
	FoldBatchNormOracle = foldBatchNormOracle
	ConsumersOracle     = (*Graph).consumersOracle
	SameBits            = sameBits
	FoldedConvOutputs   = foldedConvOutputs
	FuseEpilogueOracle  = fuseEpilogueOracle
	SameFusion          = sameFusion
)
