#ifndef UV_IO_URG_IO_H_
#define UV_IO_URG_IO_H_

#include <string>

#include "urg/urban_region_graph.h"
#include "util/status.h"

namespace uv::io {

// Binary persistence for a built UrbanRegionGraph ("UVG1" container).
// Building a URG is the expensive part of an experiment (road-connectivity
// BFS + tile encoding); saving it lets sweeps and repeated runs reload the
// dataset instead of regenerating. Raw satellite tiles are included when
// present so the image-based baselines keep working after a reload.
//
// The file holds the whole-city CSR and every region's feature rows, so
// any shard count saves the same bytes; LoadUrg returns the one-shard URG
// (ShardedUrg::FromCsr) over a ResidentFeatureStore. A malformed file —
// a non-monotone or out-of-range adjacency, a row count other than the
// region count, a length field past the end of the file — is rejected
// with InvalidArgument before anything is built from it.
Status SaveUrg(const std::string& path, const urg::UrbanRegionGraph& urg);
StatusOr<urg::UrbanRegionGraph> LoadUrg(const std::string& path);

}  // namespace uv::io

#endif  // UV_IO_URG_IO_H_
