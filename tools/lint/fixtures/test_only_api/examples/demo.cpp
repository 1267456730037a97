// Lint fixture for the test-only-api rule.  Never built.
#include "widget.h"

// OnlyTestsCallThis() in a comment is not a use.
int main() { return privtree::UsedByProduction(); }
