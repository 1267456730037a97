// Lint fixture for the test-only-api rule.  Never built.
#include "widget.h"

int TestBoth() {
  return privtree::UsedByProduction() + privtree::Widget().OnlyTestsCallThis();
}

int TestTwins() { return privtree::Widget().Twin(1, 2); }
