#include "exec/endpoint.h"

#include <exception>
#include <string>
#include <utility>

namespace fedaqp {

namespace {

/// Runs one per-item call of a default batch: an exception (e.g. a
/// sharded scan rethrowing a shard failure) becomes that item's status,
/// so one bad item never costs its neighbours their replies.
template <typename T, typename Call>
Result<T> Guarded(Call call) {
  try {
    return call();
  } catch (const std::exception& ex) {
    return Status::Internal(std::string("endpoint call threw: ") + ex.what());
  } catch (...) {
    return Status::Internal("endpoint call threw");
  }
}

}  // namespace

Result<OpenReply> ProviderEndpoint::Open(const OpenRequest& request) {
  OpenReply reply;
  FEDAQP_ASSIGN_OR_RETURN(reply.cover, Cover(request.cover));
  SummaryRequest summary;
  summary.query_id = request.cover.query_id;
  summary.eps_allocation = request.eps_allocation;
  Result<SummaryReply> published = PublishSummary(summary);
  if (!published.ok()) {
    EndQuery(request.cover.query_id);
    return published.status();
  }
  reply.summary = std::move(published).value();
  return reply;
}

std::vector<Result<OpenReply>> ProviderEndpoint::OpenBatch(
    const std::vector<OpenRequest>& requests) {
  std::vector<Result<OpenReply>> replies;
  replies.reserve(requests.size());
  for (const OpenRequest& request : requests) {
    replies.push_back(Guarded<OpenReply>([&] { return Open(request); }));
  }
  return replies;
}

std::vector<Result<EstimateReply>> ProviderEndpoint::EstimateBatch(
    const std::vector<EstimateItem>& items) {
  std::vector<Result<EstimateReply>> replies;
  replies.reserve(items.size());
  for (const EstimateItem& item : items) {
    replies.push_back(Guarded<EstimateReply>([&]() -> Result<EstimateReply> {
      if (const auto* req = std::get_if<ApproximateRequest>(&item)) {
        return Approximate(*req);
      }
      if (const auto* req = std::get_if<ExactAnswerRequest>(&item)) {
        return ExactAnswer(*req);
      }
      EndQuery(std::get<EndQueryRequest>(item).query_id);
      return EstimateReply{};
    }));
  }
  return replies;
}

}  // namespace fedaqp
