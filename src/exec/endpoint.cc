#include "exec/endpoint.h"

#include <utility>

namespace fedaqp {

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

}  // namespace fedaqp
