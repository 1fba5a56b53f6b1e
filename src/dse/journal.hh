// Old name of dse/result_json.hh, kept only because perfbench/bench.cc
// includes it; delete it when the benchmark moves to the new name.
#ifndef GENIE_DSE_JOURNAL_HH
#define GENIE_DSE_JOURNAL_HH
#include "dse/result_json.hh"
#endif // GENIE_DSE_JOURNAL_HH
