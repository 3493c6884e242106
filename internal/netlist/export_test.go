package netlist

// Exported for the external test package, which can import randnet (an
// import cycle from inside this package).
var (
	CheckParseOracle       = checkParseOracle
	CheckParseDesignOracle = checkParseDesignOracle
	ParseSeeds             = parseSeeds
	DesignSeeds            = designSeeds
	OracleEdgeDecks        = oracleEdgeDecks
	OracleEdgeDesigns      = oracleEdgeDesigns
)
