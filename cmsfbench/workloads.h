#ifndef CMSFBENCH_WORKLOADS_H_
#define CMSFBENCH_WORKLOADS_H_

#include "common.h"

namespace uvbench {

// Each runs one workload end to end: three timed set-ups, the measured
// phase, the output checks, and (traced runs) the per-layer counters.
void RunTrainFull(Run* run);
void RunTrainMinibatch(Run* run);
void RunServeBulk(Run* run);
void RunServeInteractive(Run* run);

}  // namespace uvbench

#endif  // CMSFBENCH_WORKLOADS_H_
