// Lint fixture for the test-only-api rule.  Never built.
#include "widget.h"

int BenchIt() { return privtree::Widget().OnlyTestsCallThis(); }
