#include "workload/upload_workload.hpp"

#include "common/check.hpp"

namespace smarth::workload {

UploadWorkload& UploadWorkload::add(UploadJob job) {
  SMARTH_CHECK(!job.path.empty() && job.size > 0 && job.start_at >= 0);
  jobs_.push_back(std::move(job));
  return *this;
}

UploadWorkload& UploadWorkload::add(const std::string& path, Bytes size,
                                    SimDuration start_at,
                                    std::size_t client_index) {
  return add(UploadJob{path, size, start_at, client_index});
}

std::vector<hdfs::StreamStats> UploadWorkload::run(cluster::Cluster& cluster) {
  SMARTH_CHECK_MSG(!jobs_.empty(), "workload has no jobs");
  auto results = std::make_shared<std::vector<hdfs::StreamStats>>(jobs_.size());
  auto remaining = std::make_shared<std::size_t>(jobs_.size());

  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const UploadJob job = jobs_[i];
    cluster.sim().schedule_at(
        job.start_at, "workload.upload_start",
        [&cluster, protocol = protocol_, job, i, results, remaining] {
          cluster.upload(job.path, job.size, protocol,
                         [results, remaining, i](const hdfs::StreamStats& s) {
                           (*results)[i] = s;
                           --*remaining;
                         },
                         job.client_index);
        });
  }
  // Heartbeats keep the event queue alive indefinitely; run in bounded steps
  // until every job reports completion.
  const SimTime deadline = cluster.sim().now() + seconds(200'000);
  while (*remaining > 0) {
    SMARTH_CHECK(cluster.sim().run_until(cluster.sim().now() + milliseconds(250)));
    SMARTH_CHECK_MSG(cluster.sim().now() < deadline,
                     "workload did not finish within the simulated-time ceiling");
  }
  return *results;
}

}  // namespace smarth::workload
