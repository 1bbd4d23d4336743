package live

// The engine fixtures, for the black-box tests of package live_test.
var (
	TestConfig      = testConfig
	StartTestEngine = startTestEngine
)
