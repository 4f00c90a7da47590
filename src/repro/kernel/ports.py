"""Well-known ports and message types of the Phoenix kernel.

The paper's kernel "provides documented interfaces and parallel command
calls for user environments in different forms with uniformed semantics"
(§4.2); this module is that documentation for the simulated transport:
every service's port name and the message types it understands.
"""

from __future__ import annotations

# -- service ports (one per daemon kind) -----------------------------------
GSD = "gsd"  # group service daemon: control plane
GSD_HB = "gsd.hb"  # heartbeats (WD beats and ring beats)
WD = "wd"  # watch daemon: control (gsd announcements, process queries)
ES = "es"  # event service
DB = "db"  # data bulletin service
CKPT = "ckpt"  # checkpoint service (primary)
CKPT_REPLICA = "ckpt.replica"  # checkpoint replica on the backup node
PPM = "ppm"  # parallel process management
CONFIG = "config"  # configuration service (single instance)
SECURITY = "security"  # security service (single instance)

# -- message types ----------------------------------------------------------
# heartbeats
HB_WD = "hb.wd"
HB_GSD = "hb.gsd"

# watch daemon control
WD_GSD_ANNOUNCE = "wd.gsd_announce"  # new GSD location for this partition
WD_PROC_QUERY = "wd.proc_query"  # "is host process X alive?"

# group service / meta-group membership
GSD_JOIN = "gsd.join"
GSD_VIEW = "gsd.view"
GSD_MEMBER_FAILED = "gsd.member_failed"
GSD_STATUS = "gsd.status"
GSD_REGROUP_PROBE = "gsd.regroup_probe"  # quorum census probe (regroup round)
GSD_REGROUP_ACK = "gsd.regroup_ack"  # census answer, carries responder's view

# event service
ES_SUBSCRIBE = "es.subscribe"
ES_UNSUBSCRIBE = "es.unsubscribe"
ES_PUBLISH = "es.publish"
ES_FORWARD_BATCH = "es.forward_batch"  # batched federation forwards (acked)
ES_EVENT = "es.event"  # pushed to consumers
ES_PEERS = "es.peers"  # federation membership refresh

# data bulletin
DB_PUT = "db.put"
DB_DELETE = "db.delete"
DB_QUERY = "db.query"
# relational layer (typed AST queries + materialized views)
DB_EXEC = "db.exec"  # ad-hoc relational query (full-scan reference path)
DB_VIEW_REGISTER = "db.view_register"  # register a materialized view here
DB_VIEW_DROP = "db.view_drop"
DB_VIEW_READ = "db.view_read"  # read a registered view (O(result) bytes)
DB_VIEW_LIST = "db.view_list"  # owned views + maintenance counters
DB_MAINT = "db.maint"  # peer broadcast: enable delta publishing for tables

# checkpoint
CKPT_SAVE = "ckpt.save"
CKPT_LOAD = "ckpt.load"
CKPT_DELETE = "ckpt.delete"
CKPT_REPLICATE = "ckpt.replicate"
CKPT_PULL = "ckpt.pull"
CKPT_RESEED = "ckpt.reseed"  # primary -> push full store to the replica
CKPT_ABSORB = "ckpt.absorb"  # replica <- bulk store dump from the primary

# parallel process management
PPM_START_SERVICE = "ppm.start_service"
PPM_STOP_SERVICE = "ppm.stop_service"
PPM_SPAWN_JOB = "ppm.spawn_job"
PPM_KILL_JOB = "ppm.kill_job"
PPM_CLEANUP = "ppm.cleanup"
PPM_JOB_STATUS = "ppm.job_status"
PPM_REPORT_LOAD = "ppm.report_load"
PPM_PCMD = "ppm.pcmd"

# configuration service
CONFIG_GET = "config.get"
CONFIG_SET = "config.set"
CONFIG_LIST = "config.list"
CONFIG_INTROSPECT = "config.introspect"

# security service
SEC_AUTH = "sec.authenticate"
SEC_VERIFY = "sec.verify"
SEC_AUTHORIZE = "sec.authorize"
